// Package opcache is a charge-replay operator memo: a table of completed
// deterministic operator runs, keyed on the operator kind, its parameters,
// and the identity of its input tuple sequences, holding the recorded output
// files and the charge tape of the run.
//
// Every deterministic operator in this repository — sorts, semijoins,
// projections, materializations, pairwise joins — has simulated cost and
// output that are a pure function of its inputs' contents and its parameters:
// run boundaries, merge grouping, and every block charge follow mechanically
// from the tuple counts and values. So once such an operator has run, an
// identical later run can be answered by cloning the recorded output files
// (free, like any CloneTo) and replaying the recorded charge tape into the
// disk's accountant, leaving every counter — reads, writes, hi-water, and the
// per-phase breakdown — bit-identical to redoing the work while costing
// near-zero host time. The exhaustive strategy re-executes the same prefix of
// peel steps across branches; with the memo attached, the entire shared
// prefix replays.
//
// Entries are found two ways. The fast path keys on each input window's
// (ContentID, Version, Off, N) — content identity survives CloneTo, so the
// same relation processed on every branch hits from the second branch on,
// even though each branch works through its own child-disk clone. The slow
// path hashes the input windows' contents and byte-verifies against the
// candidate's pinned snapshots, catching files rebuilt with identical
// contents on every branch (restriction copies, semijoin outputs); a verified
// slow hit registers the new identity alias so repeats take the fast path.
// Verification makes hash collisions harmless.
//
// Mutation safety: Writer.Append and File.Truncate bump a file's Version, so
// entries recorded against an older version simply never hit again. The
// pinned snapshots stay valid because algorithm files are append-only —
// appends past a snapshot's pinned window never touch the cells it covers.
//
// Suspension: lookups are allowed while the disk's charging is suspended —
// tape replay respects suspension, so a replayed hit charges exactly what a
// real suspended run would (nothing) — but entries are only recorded from
// non-suspended runs, since a suspended run observes an empty tape.
//
// Charge budgets: replayed charges go through the disk's normal charging
// paths, so an armed charge budget (extmem.SetChargeBudget) advances toward
// its watermark during replay exactly as it would during the real run, and a
// replay that crosses it aborts mid-tape with extmem.ErrBudgetExceeded. The
// abort leaves the memo untouched (the entry stays; only the caller's run
// unwinds), and a recording cut short by a budget abort is discarded, never
// stored.
//
// Bounded mode: Limits caps the entry count and the total retained snapshot
// tuples; over budget, the least-recently-used entries are evicted. Eviction
// only costs recomputation on a later miss — it can never change simulated
// accounting, because a miss re-runs the operator for real.
package opcache

import (
	"container/list"
	"strconv"
	"strings"
	"sync"

	"acyclicjoin/internal/extmem"
)

// Stats reports memo effectiveness counters. The counters are host-side
// diagnostics only — they never feed back into simulated I/O. Concurrent
// lookups of the same logical operator singleflight on its content hash (the
// second requester waits for the first compute, then replays), so the
// hit/miss split is deterministic even under concurrent branch exploration:
// one miss per distinct operator, a hit for every other request.
type Stats struct {
	// Hits and Misses count lookups on memoized operator paths.
	Hits, Misses int64
	// Evictions counts entries dropped by the bounded mode's LRU policy.
	Evictions int64
	// BytesReplayed totals the output bytes served by cloning instead of
	// re-running (8 bytes per stored int64 cell).
	BytesReplayed int64
}

// Limits bounds the memo. Zero fields mean unbounded.
type Limits struct {
	// MaxEntries caps the number of memo entries.
	MaxEntries int
	// MaxTuples caps the total tuples retained across all entries' pinned
	// input and output snapshots.
	MaxTuples int64
}

// Input names one input tuple window of an operator: tuples [Off, Off+N) of
// File. Operators over whole files use In.
type Input struct {
	File *extmem.File
	Off  int
	N    int
}

// In wraps a whole file as an Input window.
func In(f *extmem.File) Input { return Input{File: f, N: f.Len()} }

// Op identifies one deterministic operator application. Kind and Params must
// determine the operator's behaviour completely given the inputs; Aux carries
// value parameters that are data rather than structure (e.g. a semijoin's
// probe value set, in canonical order) and is verified on every hit.
type Op struct {
	Kind   string
	Params string
	Inputs []Input
	Aux    []int64
}

// inputSnap pins one input window for slow-path verification.
type inputSnap struct {
	arity int
	data  []int64 // the window's cells, capacity-pinned
}

// entry records one operator run.
type entry struct {
	ids    []string // every identity id registered for this entry
	hash   uint64
	ins    []inputSnap
	aux    []int64
	outs   []*extmem.File // output snapshots, CloneTo'd on every hit
	meta   []int64
	tape   extmem.ChargeTape
	tuples int64 // retained tuples (input windows + outputs), for Limits
	elem   *list.Element
}

// Memo is a charge-replay operator memo, safe for concurrent use by the child
// disks of one exhaustive run. Attach it to a disk with Enable; child disks
// inherit the attachment.
type Memo struct {
	mu     sync.Mutex
	lim    Limits
	byID   map[string]*entry
	byHash map[uint64][]*entry
	// inflight singleflights concurrent misses by content hash: the first
	// requester computes, later requesters wait on the flight and then replay
	// the stored entry. Without it, two branches racing to the same logical
	// operator would both compute, and the performed/replayed transfer split
	// would depend on worker timing instead of being a pure function of the
	// branch set.
	inflight map[uint64]*flight
	lru      *list.List // front = most recently used; values are *entry
	tuples   int64
	stats    Stats
}

// flight is one in-progress compute; done is closed when it finishes (stored,
// failed, or aborted — waiters re-check the memo and recompute if needed).
type flight struct {
	done chan struct{}
}

// New returns an empty memo with the given limits (zero-value = unbounded).
func New(lim Limits) *Memo {
	return &Memo{lim: lim, byID: map[string]*entry{}, byHash: map[uint64][]*entry{},
		inflight: map[uint64]*flight{}, lru: list.New()}
}

// Enable attaches a fresh unbounded memo to d (replacing any previous one)
// and returns it. Children created from d afterwards share the attachment.
func Enable(d *extmem.Disk) *Memo { return EnableLimited(d, Limits{}) }

// EnableLimited attaches a fresh bounded memo to d and returns it.
func EnableLimited(d *extmem.Disk, lim Limits) *Memo {
	m := New(lim)
	d.SetOpMemo(m)
	return m
}

// Disable detaches any memo from d.
func Disable(d *extmem.Disk) { d.SetOpMemo(nil) }

// Of returns the memo attached to d, or nil.
func Of(d *extmem.Disk) *Memo {
	if m, ok := d.OpMemo().(*Memo); ok {
		return m
	}
	return nil
}

// Stats returns a snapshot of the effectiveness counters.
func (m *Memo) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Retained returns the current entry count and retained tuple total.
func (m *Memo) Retained() (entries int, tuples int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len(), m.tuples
}

// Do memoizes one deterministic operator application on disk d. If no memo is
// attached to d, run executes directly. On a hit, the recorded outputs are
// cloned to d and the recorded charge tape is replayed — bit-identical
// accounting to executing run. On a miss, run executes under a charge-tape
// recorder and the result is stored (unless run fails or d is suspended).
//
// run must be deterministic in (op, input contents): same outputs, same
// charges, every time. It returns the operator's output files (created on d)
// and optional int64 metadata (returned verbatim on replay).
//
// Do is also the transient-fault retry boundary (extmem.OperatorBoundary):
// the determinism contract above is exactly the re-runnability a retry needs,
// so every memoized operator — sorts, semijoins, projections,
// materializations, heavy splits, pairwise-join materializations — recovers
// from injected transient I/O faults by rolling back and re-running, whether
// the memo is attached or not. A rolled-back attempt can leave completed
// nested recordings in the memo; those are valid (recorded from complete
// nested runs) and the retry replays them bit-identically. Partial recordings
// are discarded by the taping defer below, so nothing poisoned is ever
// stored.
func Do(d *extmem.Disk, op Op, run func() ([]*extmem.File, []int64, error)) ([]*extmem.File, []int64, error) {
	var outs []*extmem.File
	var meta []int64
	err := d.OperatorBoundary(func() error {
		var e error
		if m := Of(d); m != nil {
			outs, meta, e = m.do(d, op, run)
		} else {
			outs, meta, e = run()
		}
		return e
	})
	return outs, meta, err
}

func (m *Memo) do(d *extmem.Disk, op Op, run func() ([]*extmem.File, []int64, error)) ([]*extmem.File, []int64, error) {
	id := idString(d, op)
	m.mu.Lock()
	var h uint64
	haveHash := false
	for {
		e, ok := m.byID[id]
		if ok && !equalData(e.aux, op.Aux) {
			// The aux hash folded into the id collided; treat as a miss.
			e, ok = nil, false
		}
		if !ok {
			// Slow path: find by content hash and byte-verify.
			if !haveHash {
				h = hashOp(d, op)
				haveHash = true
			}
			for _, cand := range m.byHash[h] {
				if verify(cand, op) {
					cand.ids = append(cand.ids, id)
					m.byID[id] = cand // alias: future runs take the fast path
					e, ok = cand, true
					break
				}
			}
		}
		if ok {
			m.touch(e)
			m.mu.Unlock()
			return m.replay(d, e)
		}
		// Singleflight: if another goroutine is computing this content hash,
		// wait it out and re-check — its stored entry turns this miss into a
		// replay. A flight that fails or aborts stores nothing; the loop then
		// claims the flight itself.
		c := m.inflight[h]
		if c == nil {
			break
		}
		m.mu.Unlock()
		<-c.done
		m.mu.Lock()
	}
	c := &flight{done: make(chan struct{})}
	m.inflight[h] = c
	m.stats.Misses++
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.inflight, h)
		m.mu.Unlock()
		close(c.done)
	}()

	d.StartTape()
	taping := true
	defer func() {
		if taping {
			// run panicked — typically extmem.ErrBudgetExceeded unwinding a
			// pruned dry run. Pop and discard the partial tape so the recorder
			// stack stays balanced and nothing half-recorded is ever stored;
			// the memo is left exactly as it was for the aborted suffix.
			d.StopTape()
		}
	}()
	outs, meta, err := run()
	tape := d.StopTape()
	taping = false
	if err != nil || d.IsSuspended() {
		return outs, meta, err
	}
	m.store(d, op, id, h, outs, meta, tape)
	return outs, meta, err
}

// replay applies a recorded run to disk d: the tape (peak grab for the
// hi-water mark plus the recorded block charges, phase by phase) and a free
// clone of each output — the exact footprint of redoing the operator. A
// failing grab leaves the accountant in the same over-committed state a real
// run's failing grab would.
func (m *Memo) replay(d *extmem.Disk, e *entry) ([]*extmem.File, []int64, error) {
	if err := d.ReplayTape(e.tape); err != nil {
		return nil, nil, err
	}
	outs := make([]*extmem.File, len(e.outs))
	var bytes int64
	for i, o := range e.outs {
		outs[i] = o.CloneTo(d)
		bytes += int64(len(o.Raw())) * 8
	}
	var meta []int64
	if e.meta != nil {
		meta = append([]int64(nil), e.meta...)
	}
	m.mu.Lock()
	m.stats.Hits++
	m.stats.BytesReplayed += bytes
	m.mu.Unlock()
	return outs, meta, nil
}

// store records a completed run. hash is the op's content hash from the
// preceding slow-path miss (zero only if the fast path matched, which cannot
// reach here).
func (m *Memo) store(d *extmem.Disk, op Op, id string, hash uint64, outs []*extmem.File, meta []int64, tape extmem.ChargeTape) {
	e := &entry{ids: []string{id}, hash: hash, aux: append([]int64(nil), op.Aux...), tape: tape}
	for _, in := range op.Inputs {
		e.ins = append(e.ins, inputSnap{arity: in.File.Arity(), data: windowCells(in)})
		e.tuples += int64(in.N)
	}
	for _, o := range outs {
		e.outs = append(e.outs, o.Snapshot())
		e.tuples += int64(o.Len())
	}
	if meta != nil {
		e.meta = append([]int64(nil), meta...)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.byID[id]; dup {
		return // a concurrent branch raced the same operator in first
	}
	m.insertLocked(e)
}

// insertLocked makes e the most recently used entry under all of its ids,
// then evicts down to the limits.
func (m *Memo) insertLocked(e *entry) {
	for _, id := range e.ids {
		m.byID[id] = e
	}
	m.byHash[e.hash] = append(m.byHash[e.hash], e)
	e.elem = m.lru.PushFront(e)
	m.tuples += e.tuples
	m.evictLocked(e)
}

// Fork returns a private copy of m — same limits, same entries in the same
// recency order, zero counters — for one of several concurrent runs that must
// not see each other's recordings: the servers of a sharded run. On a shared
// memo, whichever server reaches an operator first performs it and the others
// replay it, and a pruned branch's budget cut stops a performing run early
// but a replaying one at the same charge, so the run's performed/replayed
// transfer split would depend on server timing. A fork's split depends only
// on its own run. Each fork applies m's limits on its own.
func (m *Memo) Fork() *Memo {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := New(m.lim)
	for el := m.lru.Back(); el != nil; el = el.Prev() {
		e := *el.Value.(*entry)
		e.ids = append([]string(nil), e.ids...)
		f.insertLocked(&e)
	}
	return f
}

// Join adds a finished fork's counters to m's. The fork's recordings are
// not copied back: they describe the files of one server's fragment, which
// the rest of the run never reads.
func (m *Memo) Join(f *Memo) {
	st := f.Stats()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Hits += st.Hits
	m.stats.Misses += st.Misses
	m.stats.Evictions += st.Evictions
	m.stats.BytesReplayed += st.BytesReplayed
}

// evictLocked drops least-recently-used entries until both limits hold. The
// just-inserted entry keep is never evicted, so an entry larger than the
// whole tuple budget still functions (the memo simply holds only it).
func (m *Memo) evictLocked(keep *entry) {
	over := func() bool {
		return (m.lim.MaxEntries > 0 && m.lru.Len() > m.lim.MaxEntries) ||
			(m.lim.MaxTuples > 0 && m.tuples > m.lim.MaxTuples)
	}
	for over() {
		back := m.lru.Back()
		if back == nil || back.Value.(*entry) == keep {
			return
		}
		m.removeLocked(back.Value.(*entry))
		m.stats.Evictions++
	}
}

func (m *Memo) removeLocked(e *entry) {
	for _, id := range e.ids {
		delete(m.byID, id)
	}
	bucket := m.byHash[e.hash]
	for i, cand := range bucket {
		if cand == e {
			m.byHash[e.hash] = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(m.byHash[e.hash]) == 0 {
		delete(m.byHash, e.hash)
	}
	m.lru.Remove(e.elem)
	m.tuples -= e.tuples
}

func (m *Memo) touch(e *entry) { m.lru.MoveToFront(e.elem) }

// verify byte-compares a candidate entry against an op (the hash matched).
func verify(e *entry, op Op) bool {
	if len(e.ins) != len(op.Inputs) || !equalData(e.aux, op.Aux) {
		return false
	}
	for i, in := range op.Inputs {
		if e.ins[i].arity != in.File.Arity() || !equalData(e.ins[i].data, windowCells(in)) {
			return false
		}
	}
	return true
}

// idString builds the fast-path identity key: operator kind and params, the
// machine parameters (the charge pattern depends on M and B), a fingerprint
// of the aux values (verified on hit, so collisions are harmless), and each
// input window's (arity, ContentID, Version, Off, N).
func idString(d *extmem.Disk, op Op) string {
	var b strings.Builder
	b.Grow(64 + 24*len(op.Inputs))
	b.WriteString(op.Kind)
	b.WriteByte(0x1f)
	b.WriteString(op.Params)
	b.WriteByte(0x1f)
	b.WriteString(strconv.Itoa(d.M()))
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(d.B()))
	b.WriteByte(0x1f)
	b.WriteString(strconv.Itoa(len(op.Aux)))
	b.WriteByte(':')
	b.WriteString(strconv.FormatUint(hashCells(op.Aux), 16))
	for _, in := range op.Inputs {
		b.WriteByte(0x1f)
		b.WriteString(strconv.Itoa(in.File.Arity()))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(in.File.ContentID(), 16))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(in.File.Version(), 16))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(in.Off))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(in.N))
	}
	return b.String()
}

// hashOp is the slow-path content hash over everything that determines the
// run: kind, params, machine parameters, aux, and the input windows' cells.
func hashOp(d *extmem.Disk, op Op) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(op.Kind); i++ {
		h = (h ^ uint64(op.Kind[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	for i := 0; i < len(op.Params); i++ {
		h = (h ^ uint64(op.Params[i])) * prime64
	}
	h = (h ^ uint64(d.M())) * prime64
	h = (h ^ uint64(d.B())) * prime64
	h = (h ^ uint64(len(op.Aux))) * prime64
	for _, v := range op.Aux {
		h = (h ^ uint64(v)) * prime64
	}
	h = (h ^ uint64(len(op.Inputs))) * prime64
	for _, in := range op.Inputs {
		h = (h ^ uint64(in.File.Arity())) * prime64
		cells := windowCells(in)
		h = (h ^ uint64(len(cells))) * prime64
		for _, v := range cells {
			h = (h ^ uint64(v)) * prime64
		}
	}
	return h
}

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// hashCells is FNV-1a-style over a cell slice. Cheap word-at-a-time mixing is
// fine here: matches are verified, so the hash only has to bucket well.
func hashCells(cells []int64) uint64 {
	h := uint64(offset64)
	h = (h ^ uint64(len(cells))) * prime64
	for _, v := range cells {
		h = (h ^ uint64(v)) * prime64
	}
	return h
}

// windowCells returns the capacity-pinned cell slice of an input window.
func windowCells(in Input) []int64 {
	slot := in.File.Arity()
	if slot == 0 {
		slot = 1 // arity-0 files store one sentinel cell per tuple
	}
	lo := in.Off * slot
	hi := (in.Off + in.N) * slot
	return in.File.Raw()[lo:hi:hi]
}

func equalData(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
