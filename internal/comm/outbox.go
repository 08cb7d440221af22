package comm

// Outbox is the sender-side message buffer used by the push engines:
// messages accumulate per destination worker and a packet is flushed as
// soon as its encoded size reaches the sending threshold (the paper's
// "distributed systems usually set a sending threshold to control the
// communication behaviour", Appendix E; Giraph-style, 4 MB by default).
// Push does not concatenate or combine — the paper argues the poor
// destination locality at the sender makes it not cost-effective — so
// packets are flushed unconcatenated.
type Outbox struct {
	fabric    Fabric
	from      int
	step      int
	threshold int64
	pending   [][]Msg
	flushes   int64
	sent      int64
	combine   func(a, b float64) float64
	saved     int64 // wire bytes saved by sender-side combining
	touched   int64 // messages processed by the combiner
}

// SetCombine enables sender-side combining at flush time (the paper's
// modified MOCgraph, pushM+com, Appendix E). Only messages that happen to
// share a destination within one buffered packet combine — exactly the
// limitation the paper demonstrates: once a threshold-triggered flush has
// carried a message away, later messages to the same vertex cannot join
// it.
func (o *Outbox) SetCombine(c func(a, b float64) float64) { o.combine = c }

// SavedBytes reports the wire bytes sender-side combining removed.
func (o *Outbox) SavedBytes() int64 { return o.saved }

// CombinedTouches reports how many messages the combiner processed (its
// CPU cost, which a small threshold fails to amortise).
func (o *Outbox) CombinedTouches() int64 { return o.touched }

// NewOutbox returns an outbox for worker from sending via fabric at the
// given superstep. thresholdBytes <= 0 selects the 4 MB default.
func NewOutbox(fabric Fabric, workers, from, step int, thresholdBytes int64) *Outbox {
	if thresholdBytes <= 0 {
		thresholdBytes = 4 << 20
	}
	return &Outbox{
		fabric:    fabric,
		from:      from,
		step:      step,
		threshold: thresholdBytes,
		pending:   make([][]Msg, workers),
	}
}

// Add buffers one message for worker to, flushing if the buffer reaches
// the threshold.
func (o *Outbox) Add(to int, m Msg) error {
	o.pending[to] = append(o.pending[to], m)
	if int64(len(o.pending[to]))*MsgWireSize >= o.threshold {
		return o.flush(to)
	}
	return nil
}

// Flush sends every non-empty buffer.
func (o *Outbox) Flush() error {
	for to := range o.pending {
		if len(o.pending[to]) > 0 {
			if err := o.flush(to); err != nil {
				return err
			}
		}
	}
	return nil
}

func (o *Outbox) flush(to int) error {
	msgs := o.pending[to]
	o.pending[to] = nil
	o.flushes++
	o.sent += int64(len(msgs))
	p := &Packet{From: o.from, To: to, Step: o.step, Msgs: msgs}
	if o.combine != nil && len(msgs) > 1 {
		raw := int64(len(msgs)) * MsgWireSize
		o.touched += int64(len(msgs))
		SortByDst(msgs)
		p.Msgs = CombineSorted(msgs, o.combine)
		p.WireBytes = ConcatSize(p.Msgs)
		o.saved += raw - p.WireBytes
	}
	return o.fabric.Send(p)
}

// Sent reports the number of messages sent (including buffered-then-
// flushed), and Flushes the number of packets.
func (o *Outbox) Sent() int64 { return o.sent }

// Flushes reports the number of packets sent.
func (o *Outbox) Flushes() int64 { return o.flushes }

// stageEntry is one deferred Outbox.Add.
type stageEntry struct {
	to int
	m  Msg
}

// Stage is a per-shard sender buffer for parallel update scans. Shards
// cannot share an Outbox directly — threshold-triggered flushes depend on
// the exact Add order, and interleaving shards would change packet
// boundaries (and, under sender combining, which messages meet in a
// packet). Instead each shard stages its sends locally and the caller
// replays the stages into one Outbox in shard order after the scan joins.
// Because shards cover disjoint ascending vertex ranges, that replay
// reproduces the sequential run's Add sequence exactly: identical packet
// boundaries, combine batches, wire bytes and message-log appends for any
// Parallelism.
type Stage struct {
	entries []stageEntry
}

// Add stages one message for worker to. The stage grows as needed rather
// than flush, since flushing out of order is exactly what staging exists
// to prevent. The zero Stage is ready to use.
func (s *Stage) Add(to int, m Msg) {
	s.entries = append(s.entries, stageEntry{to: to, m: m})
}

// Len reports the number of staged messages.
func (s *Stage) Len() int { return len(s.entries) }

// Reset drops any staged messages, keeping the backing array.
func (s *Stage) Reset() { s.entries = s.entries[:0] }

// MergeInto replays the staged sends into o in staging order and empties
// the stage, keeping its backing array so a stage reused superstep after
// superstep stops allocating once it has grown to its largest load.
// Threshold flushes fire during the replay exactly as they would have
// during a sequential scan.
func (s *Stage) MergeInto(o *Outbox) error {
	for _, e := range s.entries {
		if err := o.Add(e.to, e.m); err != nil {
			return err
		}
	}
	s.Reset()
	return nil
}
