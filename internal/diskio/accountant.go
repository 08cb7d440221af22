package diskio

import "sync"

// Accountant is the one charge path of the storage layer: every byte a
// Counter sees is charged here. It holds the per-file charging state —
// sequential position, last-touched page, per-page device amplification
// for random classes, the zero-byte sync op — and performs no I/O of its
// own, so a store can charge each logical access the way the paper's
// cost model sees it (one random write per spilled message, say) while
// batching the real I/O however it likes.
//
// A File charges through a mirrored Accountant: its bytes are the bytes
// that hit the device, so each charge lands on the counter and on its
// physical twin. Whether a store's logical bytes are also its physical
// bytes is its codec's business: a raw store charges through a mirrored
// Accountant and holds uncharged file handles, while a compressed store
// charges the logical dimension through a plain Accountant and lets its
// real frame I/O land on the counter's physical twin.
type Accountant struct {
	mu       sync.Mutex
	ct       *Counter
	mirror   bool
	seqPos   int64 // next offset that still counts as sequential
	lastPage int64 // most recently touched page, for device-byte accounting
}

// NewAccountant starts a charge machine in the state of a freshly
// created or opened File. Its charges use the raw (non-mirroring) tally
// update, so they never leak into the physical dimension. A nil counter
// makes every charge a no-op.
func NewAccountant(ct *Counter) *Accountant {
	return &Accountant{ct: ct, lastPage: -1}
}

// NewMirroredAccountant is NewAccountant for bytes that are also the
// physical bytes: every charge is mirrored onto ct's physical twin.
func NewMirroredAccountant(ct *Counter) *Accountant {
	return &Accountant{ct: ct, mirror: true, lastPage: -1}
}

// SetCounter retargets accounting. The stores are built under a
// worker's loading counter (Fig. 16 reports loading cost separately)
// and then retargeted to its computation counter.
func (a *Accountant) SetCounter(ct *Counter) {
	a.mu.Lock()
	a.ct = ct
	a.mu.Unlock()
}

// devCharge computes the device bytes an access moves and records the page
// position. Sequential classes transfer what they read; random classes
// transfer whole pages, except repeated touches of the most recent page
// (b-pull's svertex reads ascend within an Eblock scan and so coalesce,
// while the pull baseline's scattered misses each pay a page — the
// mechanism behind Fig. 10's orders-of-magnitude gap). Callers hold a.mu.
func (a *Accountant) devCharge(off, n int64, c Class) int64 {
	if n <= 0 {
		return 0
	}
	first := off / PageSize
	last := (off + n - 1) / PageSize
	if c == SeqRead || c == SeqWrite {
		a.lastPage = last
		return n
	}
	var dev int64
	for p := first; p <= last; p++ {
		if p != a.lastPage {
			dev += PageSize
		}
		a.lastPage = p
	}
	return dev
}

// ReadAtClass charges an n-byte read of class c at off, exactly as
// File.ReadAtClass does for an n-byte transfer.
func (a *Accountant) ReadAtClass(n, off int64, c Class) { a.chargeDev(n, off, c, -1) }

// WriteAtClass charges an n-byte write of class c at off, exactly as
// File.WriteAtClass does for an n-byte transfer.
func (a *Accountant) WriteAtClass(n, off int64, c Class) { a.chargeDev(n, off, c, -1) }

// chargeDev charges an n-byte access of class c at off moving dev device
// bytes; a negative dev is computed from the page position.
func (a *Accountant) chargeDev(n, off int64, c Class, dev int64) {
	a.mu.Lock()
	a.seqPos = off + n
	if dev < 0 {
		dev = a.devCharge(off, n, c)
	} else if n > 0 {
		a.lastPage = (off + n - 1) / PageSize
	}
	ct := a.ct
	a.mu.Unlock()
	a.add(ct, c, n, dev)
}

// classify predicts the class chargeAuto will assign to an access at off.
func (a *Accountant) classify(off int64, randC, seqC Class) Class {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.classifyLocked(off, randC, seqC)
}

func (a *Accountant) classifyLocked(off int64, randC, seqC Class) Class {
	if off == a.seqPos || (off == 0 && a.seqPos == 0) {
		return seqC
	}
	return randC
}

// chargeAuto charges an n-byte access at off, classed seqC when it
// continues exactly where the previous access ended and randC otherwise.
// A zero-byte access moves the position but records no operation.
func (a *Accountant) chargeAuto(n, off int64, randC, seqC Class) {
	a.mu.Lock()
	c := a.classifyLocked(off, randC, seqC)
	a.seqPos = off + n
	dev := a.devCharge(off, n, c)
	ct := a.ct
	a.mu.Unlock()
	if n > 0 {
		a.add(ct, c, n, dev)
	}
}

// Sync charges the zero-byte sequential-write op File.Sync records.
func (a *Accountant) Sync() {
	a.mu.Lock()
	ct := a.ct
	a.mu.Unlock()
	a.add(ct, SeqWrite, 0, 0)
}

// add tallies one charge on ct and, for a mirrored Accountant, on ct's
// physical twin (Counter.AddDev, spelled out to keep this hot path to one
// call).
func (a *Accountant) add(ct *Counter, c Class, n, dev int64) {
	ct.addDev(c, n, dev)
	if a.mirror {
		ct.Phys().addDev(c, n, dev)
	}
}
