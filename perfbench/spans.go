package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the traced run, recorded around a call
// into a layer. Spans of one run share Run; Parent 0 marks the root.
type span struct {
	Run    string  `json:"run"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog keeps a run's spans in memory until write.
type spanLog struct {
	run   string
	t0    time.Time
	spans []span
}

func newSpanLog(run string) *spanLog { return &spanLog{run: run, t0: time.Now()} }

func (l *spanLog) now() float64 { return time.Since(l.t0).Seconds() }

// begin opens a span and returns its id for end.
func (l *spanLog) begin(name string, parent int) int {
	return l.add(name, parent, l.now(), 0)
}

func (l *spanLog) end(id int) { l.spans[id-1].End = l.now() }

// add records a span whose bounds are already known.
func (l *spanLog) add(name string, parent int, start, end float64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Run: l.run, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
