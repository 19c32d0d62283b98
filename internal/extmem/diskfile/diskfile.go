// Package diskfile implements the os.File-backed storage engine behind the
// extmem Backend seam. The simulated machine's in-memory image stays
// authoritative; the engine mirrors it onto a real file, frame by frame, so
// that every charged block transfer is physically executed and every charged
// read is byte-verified against the image — a standing torn-block check that
// turns any divergence between the model and the device into a panic at the
// exact transfer that broke.
//
// Layout: each physical file is a sequence of frames of B tuples (B*slot
// cells, 8 bytes per cell), allocated frame-at-a-time from a free list inside
// one backing os.File. Above the device sits an aligned block cache of M/B
// frames (LRU), a write batcher that coalesces contiguous dirty frames into
// single pwrites, and a read-ahead prefetcher for sequential scans. None of
// that machinery is visible to the model: charges and transfer parity are
// counted at the seam, and the cache only changes the syscall telemetry
// reported through DeviceStats.
//
// Device I/O is asynchronous by default: no pread or pwrite executes while
// holding the engine mutex. Writeback forms coalesced segments at the charged
// operation (allocating device offsets in deterministic (phys, frame) order)
// and hands them to a dedicated flusher goroutine over a bounded FIFO queue;
// sequential read-ahead is performed by a prefetch worker that loads pinned
// frames marked with a per-frame in-flight latch. Every cache-state decision
// and every deterministic DeviceStats counter is made under the mutex at the
// charged operation, so the sync and async pipelines report bit-identical
// telemetry on a sequential schedule; only the four overlap counters
// (OverlappedWrites, FlushQueueHiWater, PrefetchInFlight, DemandWaits) are
// timing-dependent. OpenSync forces the old inline path for debugging.
package diskfile

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"

	"acyclicjoin/internal/extmem"
)

// Device is the raw syscall surface beneath the engine: positioned reads and
// writes against the backing storage. The default device is the backing
// os.File itself; OpenWithDevice lets a wrapper interpose (fault injection,
// tracing) underneath every engine syscall — including the ones issued by the
// async flusher and prefetch workers, which never cross the Backend seam.
// Implementations must be safe for concurrent use, like *os.File.
type Device interface {
	io.ReaderAt
	io.WriterAt
}

// maxQueuedSegs bounds the writeback queue: once this many coalesced segments
// are waiting on the flusher, the next flush blocks (releasing the mutex)
// until the device catches up, so a fast producer cannot buffer the whole
// workload in memory. Deep enough that a producer in a flush burst rarely
// stalls (a segment is at most batchFrames frames, so the buffered ceiling
// stays a few hundred KB), shallow enough to stay a real bound.
const maxQueuedSegs = 32

// Engine is an extmem.Backend that mirrors the simulated disk onto one
// backing os.File. It is safe for concurrent use: a disk tree's children may
// run on distinct goroutines, and all engine state is guarded by one mutex.
//
// Engine is a small handle around the actual engine state: the worker
// goroutines reference only the inner struct, so an abandoned handle still
// becomes unreachable and its finalizer can shut the workers down and release
// the descriptor.
type Engine struct{ *engine }

type engine struct {
	mu      sync.Mutex
	ioCond  *sync.Cond // broadcast on every worker completion and queue change
	cfg     extmem.Config
	f       *os.File
	dev     Device // syscall surface; e.f unless OpenWithDevice interposed
	path    string // retained file path; "" when unlinked at creation
	closed  bool
	closing bool // a Close is in progress (it releases mu while draining)
	syncDev bool // inline device I/O under mu; no worker goroutines

	// Device-fault recovery state. maxRetries bounds the inline retry loop
	// per failed syscall; repairable gates torn-frame repair (set only when a
	// fault device is interposed — with the real device, a verify mismatch is
	// an engine bug and must surface as ErrCorruption, not be papered over).
	// dead latches a device declared permanently failed; it is atomic because
	// the retry helpers run with the mutex released on async paths. rec and
	// repairs are guarded by mu like the rest of the engine state.
	maxRetries int
	repairable bool
	dead       atomic.Bool
	rec        extmem.DeviceFaultStats // recovery-side telemetry
	repairs    map[frameKey]int        // consecutive repairs per frame

	nextPhys  uint64
	files     map[uint64]*pfile
	lastPhys  uint64 // one-entry pfileOf memo: charged ops cluster per file
	lastPf    *pfile
	nFrames   int        // resident frames (cache occupancy; frames live in pfile.frames)
	frameFree []*frame   // evicted frame shells for reuse (cells capacity retained)
	lru       *list.List // front = most recently used; values are *frame
	dirty     map[frameKey]*frame
	free      map[int64][]int64 // allocation size -> reusable device offsets
	devEnd    int64             // bump allocator high-water mark

	capFrames   int // cache capacity: M/B frames, like the model's memory
	batchFrames int // dirty frames buffered before a coalescing flush
	readAhead   int // frames prefetched ahead of a sequential scan

	stats   extmem.DeviceStats
	scratch []byte // sync-mode staging; async paths use pooled per-segment buffers

	// Async pipeline state (unused in sync mode). Everything is guarded by mu;
	// the workers take work out under mu, perform the syscall unlocked, and
	// publish completion under mu via ioCond.
	wbQueue     []*wbSeg         // FIFO of formed segments awaiting pwrite
	wbActive    bool             // flusher is between dequeue and completion
	wbWaiters   int              // drainers blocked in drainWritebackLocked
	wbPending   map[frameKey]int // queued or in-flight writeback copies per frame
	physPending map[uint64]int   // same, aggregated per physical file
	pfQueue     []*loadReq       // FIFO of prefetch loads awaiting the worker
	loading     int              // frames currently marked in-flight
	ioErr       error            // first async syscall failure; surfaces at the next charged op
	quit        bool
	workersUp   bool
	wbDone      chan struct{}
	pfDone      chan struct{}
}

// wbSeg is one coalesced writeback segment: the encoded bytes of one or more
// offset-contiguous frames, snapshotted at flush time so later mutations of
// the cache frames cannot race the in-flight pwrite.
type wbSeg struct {
	off  int64
	buf  []byte
	keys []frameKey // frames encoded into buf, in device-offset order
}

// loadReq is one queued prefetch: a contiguous run of frames, already in the
// cache and latched loading, with counters charged at enqueue time. The run
// maps to a single pread — grouping is decided at formation, under the mutex,
// so the ReadCalls telemetry stays deterministic.
type loadReq struct {
	frs   []*frame
	off   int64
	cells []int // device cells per frame, snapshotted at enqueue
}

// segPool recycles writeback and load buffers across the engine's lifetime.
var segPool sync.Pool

func getBuf(n int) []byte {
	if v := segPool.Get(); v != nil {
		if b := *(v.(*[]byte)); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func putBuf(b []byte) { segPool.Put(&b) }

// pfile is the device-side state of one physical file.
type pfile struct {
	arity      int
	slot       int // cells per tuple (arity 0 stores one sentinel cell)
	frameCells int // capacity of one frame in cells (B * slot)
	frameBytes int64
	offs       []int64  // device offset per frame index; -1 = not allocated
	devCells   []int    // cells present on the device per frame
	frames     []*frame // cached frame per index (nil = not resident)
	lastSeq    int      // last demand-fetched frame (sequential-scan detector)
}

// frame returns the cached frame at index k, or nil. A slice index replaces
// the old global map[frameKey] lookup: the cache membership test runs on
// every charged operation, and on charge-dense workloads the map hashing was
// a measurable slice of the whole engine overhead.
func (pf *pfile) frame(k int) *frame {
	if k < len(pf.frames) {
		return pf.frames[k]
	}
	return nil
}

type frameKey struct {
	phys uint64
	idx  int
}

// frame is one cached block: the current contents of tuples
// [idx*B, (idx+1)*B) of its file, possibly ahead of the device copy (dirty).
// prefetched marks a frame brought in by read-ahead that no demand read has
// touched yet; its resolution feeds the PrefetchHits/PrefetchWasted telemetry.
// loading is the in-flight latch: the frame is pinned while a worker (or a
// demand read on another goroutine) preads into it, and every path that would
// read, overwrite, or evict it waits on the latch first — a frame is never
// double-read and never observed half-filled.
type frame struct {
	key        frameKey
	pf         *pfile // owning file (saves a files-map lookup on hot paths)
	cells      []int64
	dirty      bool
	prefetched bool
	loading    bool
	elem       *list.Element
}

// Open creates a file-backed engine for the given machine configuration, in
// asynchronous device mode. The backing
// file is created under dir; an empty dir means the system temp directory
// with the file unlinked immediately (it exists only as an open descriptor
// and can never be leaked on disk). A non-empty dir retains the file until
// Close. A finalizer backstops Close so an abandoned engine cannot leak the
// descriptor or its worker goroutines.
func Open(dir string, cfg extmem.Config) (*Engine, error) {
	return open(dir, cfg, false)
}

// OpenSync is Open in synchronous device mode: no worker goroutines, every
// syscall inline under the engine mutex (the pre-pipeline behaviour).
// Charged counters, verification, and results are bit-identical either way.
func OpenSync(dir string, cfg extmem.Config) (*Engine, error) {
	return open(dir, cfg, true)
}

// OpenWithDevice is Open with a device wrapper interposed beneath every engine
// syscall: wrap receives the backing os.File and returns the Device the engine
// will issue its preads and pwrites against. Installing a wrapper also arms
// the engine's self-healing: verify mismatches are repaired from the
// authoritative image (counted in DeviceFaultRecovery) instead of surfacing as
// corruption, because a wrapped device is expected to lie. maxRetries bounds
// the inline retry loop per failed syscall (0 means
// extmem.DefaultMaxDeviceRetries). Used by internal/extmem/faultbackend.
func OpenWithDevice(dir string, cfg extmem.Config, syncDev bool, maxRetries int, wrap func(Device) Device) (*Engine, error) {
	e, err := open(dir, cfg, syncDev)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		e.dev = wrap(e.f)
		e.repairable = true
		e.repairs = map[frameKey]int{}
	}
	if maxRetries > 0 {
		e.maxRetries = maxRetries
	}
	return e, nil
}

func open(dir string, cfg extmem.Config, syncDev bool) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	unlink := dir == ""
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "acyclicjoin-disk-*.dat")
	if err != nil {
		return nil, fmt.Errorf("diskfile: create backing file: %w", err)
	}
	in := &engine{
		cfg:        cfg,
		f:          f,
		dev:        f,
		path:       f.Name(),
		syncDev:    syncDev,
		nextPhys:   1,
		files:      map[uint64]*pfile{},
		lru:        list.New(),
		dirty:      map[frameKey]*frame{},
		free:       map[int64][]int64{},
		maxRetries: extmem.DefaultMaxDeviceRetries,
	}
	in.ioCond = sync.NewCond(&in.mu)
	if in.capFrames = cfg.M / cfg.B; in.capFrames < 2 {
		in.capFrames = 2
	}
	if in.batchFrames = in.capFrames / 4; in.batchFrames < 4 {
		in.batchFrames = 4
	}
	in.readAhead = 4
	if unlink {
		// Anonymous mode: the name disappears now; the descriptor keeps the
		// storage alive until Close.
		if err := os.Remove(in.path); err != nil {
			f.Close()
			return nil, fmt.Errorf("diskfile: unlink backing file: %w", err)
		}
		in.path = ""
	}
	if !syncDev {
		// Workers start eagerly so goroutine accounting is stable from Open:
		// one flusher draining the writeback queue, one prefetch worker
		// draining the read-ahead queue.
		in.wbPending = map[frameKey]int{}
		in.physPending = map[uint64]int{}
		in.wbDone = make(chan struct{})
		in.pfDone = make(chan struct{})
		in.workersUp = true
		go in.writebackWorker()
		go in.prefetchWorker()
	}
	e := &Engine{in}
	runtime.SetFinalizer(e, func(e *Engine) { e.engine.Close() })
	return e, nil
}

// Name implements extmem.Backend.
func (e *engine) Name() string { return "file" }

// Path returns the backing file's path, or "" when it was unlinked at
// creation (anonymous mode).
func (e *engine) Path() string { return e.path }

// SyncDevice reports whether the engine runs in synchronous device mode.
func (e *engine) SyncDevice() bool { return e.syncDev }

// CreateFile implements extmem.Backend.
func (e *engine) CreateFile(arity int) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	slot := arity
	if slot == 0 {
		slot = 1
	}
	phys := e.nextPhys
	e.nextPhys++
	cells := e.cfg.B * slot
	e.files[phys] = &pfile{
		arity: arity, slot: slot,
		frameCells: cells, frameBytes: int64(cells) * 8,
		lastSeq: -2,
	}
	return phys
}

func (e *engine) pfileOf(phys uint64) *pfile {
	if phys == e.lastPhys && e.lastPf != nil {
		return e.lastPf
	}
	pf, ok := e.files[phys]
	if !ok {
		panic(fmt.Sprintf("diskfile: unknown physical file %d", phys))
	}
	e.lastPhys, e.lastPf = phys, pf
	return pf
}

// failAsync records the first deferred syscall failure (async worker, or a
// sync-mode flush reached from Flush/Close where a panic has no catcher). It
// is surfaced as a typed-error panic at the next charged operation — unwound
// by extmem.CatchAbort into a clean error return — and as an error from
// Flush/Close, with the failing transfer identified in the message.
func (e *engine) failAsync(err error) {
	if e.ioErr == nil {
		e.ioErr = err
	}
}

// checkAsyncErr surfaces a recorded deferred failure on the calling charged
// operation. The panic value is the typed error itself (wrapping ErrDevice,
// ErrNoSpace, or ErrCorruption), so the abort unwinds through CatchAbort.
func (e *engine) checkAsyncErr() {
	if e.ioErr != nil {
		panic(e.ioErr)
	}
}

// devOutcome is one device syscall's result under the bounded-retry protocol:
// how many re-issues it took, the simulated backoff billed for them, and the
// final classified error (nil on success). The helpers below do not touch
// engine state — async callers run them with the mutex released — so the
// tallies are folded into the recovery telemetry by foldDev, under the mutex.
type devOutcome struct {
	retries int64
	backoff int64
	err     error
}

// devReadAt preads into buf at off, retrying transient failures up to
// maxRetries times with exponential backoff. ENOSPC is never retried (it
// cannot apply to reads, but classification is shared with writes); exhausted
// retries latch the device dead and classify as ErrDevice.
func (e *engine) devReadAt(buf []byte, off int64) devOutcome {
	return e.devCall(opRead, off, len(buf), func() error {
		_, err := e.dev.ReadAt(buf, off)
		return err
	})
}

// devWriteAt pwrites buf at off under the same retry protocol as devReadAt.
func (e *engine) devWriteAt(buf []byte, off int64) devOutcome {
	return e.devCall(opWrite, off, len(buf), func() error {
		_, err := e.dev.WriteAt(buf, off)
		return err
	})
}

const (
	opRead  = "pread"
	opWrite = "pwrite"
)

func (e *engine) devCall(op string, off int64, n int, call func() error) devOutcome {
	var out devOutcome
	if e.dead.Load() {
		out.err = fmt.Errorf("diskfile: %s %d bytes at %d: device declared dead: %w", op, n, off, extmem.ErrDevice)
		return out
	}
	var err error
	for attempt := 0; ; attempt++ {
		if err = call(); err == nil {
			return out
		}
		if isNoSpace(err) {
			out.err = fmt.Errorf("diskfile: %s %d bytes at %d: %w (%v)", op, n, off, extmem.ErrNoSpace, err)
			return out
		}
		if attempt >= e.maxRetries {
			break
		}
		out.retries++
		out.backoff += int64(1) << uint(min(attempt, 20))
	}
	e.dead.Store(true)
	out.err = fmt.Errorf("diskfile: %s %d bytes at %d: retries exhausted: %w (%v)", op, n, off, extmem.ErrDevice, err)
	return out
}

// isNoSpace recognizes space exhaustion: the real syscall error, or an
// injected error wrapping the extmem sentinel.
func isNoSpace(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, extmem.ErrNoSpace)
}

// foldDev folds one syscall's retry outcome into the recovery telemetry.
// Callers must hold mu.
func (e *engine) foldDev(op string, out devOutcome) {
	e.rec.Retries += out.retries
	if op == opWrite {
		e.rec.RetriedWrites += out.retries
	} else {
		e.rec.RetriedReads += out.retries
	}
	e.rec.BackoffIOs += out.backoff
	if out.err != nil && errors.Is(out.err, extmem.ErrDevice) {
		e.rec.DeviceDead = 1
	}
}

// DeviceFaultRecovery returns the engine's recovery-side fault telemetry:
// syscall retries, backoff, torn-frame repairs, and the dead-device latch.
// The injection-side counters live in the fault device wrapper; the
// faultbackend package merges the two views.
func (e *engine) DeviceFaultRecovery() extmem.DeviceFaultStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rec
}

// frameSettled returns the resident frame for (pf, k) with any in-flight load
// completed, or nil when the slot is empty. Waiting releases the mutex, and a
// concurrent charged operation may evict the waited-on frame — and reuse its
// shell for a different key — before the waiter reacquires the lock, so the
// lookup revalidates the slot after every wait and only returns a frame that
// is both settled and still the slot's current occupant. steal lets a demand
// reader claim the frame's queued prefetch group instead of blocking behind
// the worker's schedule.
func (e *engine) frameSettled(pf *pfile, k int, steal bool) *frame {
	for {
		fr := pf.frame(k)
		if fr == nil || !fr.loading {
			return fr
		}
		if steal && e.stealQueuedLoad(fr) {
			e.checkAsyncErr()
		} else {
			e.waitFrameLoaded(fr)
		}
		if pf.frame(k) == fr {
			return fr
		}
	}
}

// waitFrameLoaded blocks until fr's in-flight load (if any) completes. Callers
// on the charged path come through here before reading, overwriting, or
// evicting a latched frame, and must revalidate any slot lookup afterwards
// (see frameSettled) — the frame may no longer be the slot's occupant.
func (e *engine) waitFrameLoaded(fr *frame) {
	if !fr.loading {
		return
	}
	e.stats.DemandWaits++
	for fr.loading {
		e.ioCond.Wait()
	}
	e.checkAsyncErr()
}

// WriteRange implements extmem.Backend: cells become the contents of tuples
// [off, off+n) of phys. off is frame-aligned and windows only ever grow a
// file, so every touched frame is overwritten from its first cell — no
// read-modify-write is needed and the cache frame can be replaced outright.
func (e *engine) WriteRange(phys uint64, off int, cells []int64, billed bool) {
	if len(cells) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ensureOpen()
	e.checkAsyncErr()
	if billed {
		e.stats.BilledWrites++
	} else {
		e.stats.UnbilledWrites++
	}
	pf := e.pfileOf(phys)
	for k := off / e.cfg.B; len(cells) > 0; k++ {
		n := len(cells)
		if n > pf.frameCells {
			n = pf.frameCells
		}
		fr := e.frameSettled(pf, k, false)
		if fr == nil {
			fr = e.insertFrame(pf, frameKey{phys, k})
		} else {
			e.lru.MoveToFront(fr.elem)
			if fr.prefetched {
				// Overwritten before any read touched it: the read-ahead
				// fetched a frame whose contents were never used.
				fr.prefetched = false
				e.stats.PrefetchWasted++
			}
		}
		fr.cells = append(fr.cells[:0], cells[:n]...)
		if !fr.dirty {
			fr.dirty = true
			e.dirty[fr.key] = fr
		}
		cells = cells[n:]
	}
	if len(e.dirty) >= e.batchFrames {
		if err := e.flushLocked(); err != nil {
			panic(err)
		}
	}
	e.evictLocked()
}

// ReadRange implements extmem.Backend: fetch tuples [off, off+n) of phys —
// from the cache, the device, or (when no device copy exists yet) rebuilt
// from the image — and byte-verify the result against want.
func (e *engine) ReadRange(phys uint64, off int, want []int64) {
	if len(want) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ensureOpen()
	e.checkAsyncErr()
	e.stats.BilledReads++
	pf := e.pfileOf(phys)
	served := "cache"
	for k := off / e.cfg.B; len(want) > 0; k++ {
		n := len(want)
		if n > pf.frameCells {
			n = pf.frameCells
		}
		part := want[:n]
		want = want[n:]
		fr := e.frameSettled(pf, k, true)
		switch {
		case fr != nil:
			e.lru.MoveToFront(fr.elem)
			if fr.prefetched {
				fr.prefetched = false
				e.stats.PrefetchHits++
			}
		case k < len(pf.offs) && pf.offs[k] >= 0 && pf.devCells[k] > 0:
			fr = e.fetchFrame(pf, phys, k)
			if served == "cache" {
				served = "device"
			}
			if k == pf.lastSeq+1 {
				e.prefetch(pf, phys, k+1)
			}
			pf.lastSeq = k
		default:
			// No device copy yet (unflushed tail, or a clone that diverged
			// from its original before this frame was ever written): the
			// image is the only source. Materialize and keep it dirty so the
			// device catches up.
			fr = e.insertFrame(pf, frameKey{phys, k})
			fr.cells = append(fr.cells[:0], part...)
			fr.dirty = true
			e.dirty[fr.key] = fr
			e.stats.Backfills++
			served = "backfill"
		}
		e.verify(fr, part)
		if len(fr.cells) < len(part) {
			// The device copy is a stale prefix (the image grew past the
			// last flushed window, e.g. a writer's buffered tail): extend
			// from the image.
			fr.cells = append(fr.cells, part[len(fr.cells):]...)
			if !fr.dirty {
				fr.dirty = true
				e.dirty[fr.key] = fr
			}
			e.stats.Backfills++
		}
	}
	switch served {
	case "cache":
		e.stats.CacheHits++
	case "device":
		e.stats.DeviceServes++
	default:
		e.stats.BackfillServes++
	}
	e.evictLocked()
}

// maxFrameRepairs bounds consecutive repairs of one frame: a frame the device
// keeps tearing faster than the engine can re-flush it is declared corrupt.
const maxFrameRepairs = 4

// verify byte-compares a frame against the authoritative image window want.
// With a fault device installed (repairable), a mismatch is repaired: the
// image window — authoritative by construction — overwrites the frame, which
// is marked dirty so the next flush re-lands the good bytes on the device.
// Repairs are bounded per frame; past the bound, or with the real device
// underneath (where a mismatch means an engine bug, never an injected torn
// write), the mismatch panics with a typed error wrapping ErrCorruption.
func (e *engine) verify(fr *frame, want []int64) {
	got := fr.cells
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			e.repairFrame(fr, want, i, got[i], want[i])
			e.stats.VerifiedCells += int64(len(want))
			return
		}
	}
	if e.repairable && len(e.repairs) > 0 {
		delete(e.repairs, fr.key) // clean verify resets the consecutive count
	}
	e.stats.VerifiedCells += int64(n)
}

// repairFrame handles one verify mismatch at cell i; see verify.
func (e *engine) repairFrame(fr *frame, want []int64, i int, got, exp int64) {
	err := fmt.Errorf("diskfile: %w: phys %d frame %d cell %d: device has %d, image has %d",
		extmem.ErrCorruption, fr.key.phys, fr.key.idx, i, got, exp)
	if !e.repairable {
		panic(err)
	}
	if e.repairs[fr.key]++; e.repairs[fr.key] > maxFrameRepairs {
		panic(fmt.Errorf("%w (repaired %d times, giving up)", err, maxFrameRepairs))
	}
	fr.cells = append(fr.cells[:0], want...)
	if !fr.dirty {
		fr.dirty = true
		e.dirty[fr.key] = fr
	}
	fr.prefetched = false
	e.rec.Repairs++
}

// Truncate implements extmem.Backend: drop every cached frame of phys and
// return its device frames to the free list. In async mode the file's queued
// writebacks and in-flight loads are drained first, so a freed offset can
// never be reallocated while a stale pwrite for it is still in the queue.
func (e *engine) Truncate(phys uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.checkAsyncErr()
	pf := e.pfileOf(phys)
	for {
		var inFlight *frame
		for _, fr := range pf.frames {
			if fr != nil && fr.loading {
				inFlight = fr
				break
			}
		}
		if inFlight == nil && e.physPending[phys] == 0 {
			break
		}
		if inFlight != nil {
			e.waitFrameLoaded(inFlight)
		} else {
			e.ioCond.Wait()
		}
	}
	for _, off := range pf.offs {
		if off >= 0 {
			e.free[pf.frameBytes] = append(e.free[pf.frameBytes], off)
		}
	}
	// pf.frames covers every resident frame, including backfilled frames
	// beyond the allocated device range.
	for _, fr := range pf.frames {
		if fr != nil {
			e.dropFrame(fr)
		}
	}
	pf.offs = pf.offs[:0]
	pf.devCells = pf.devCells[:0]
	pf.frames = pf.frames[:0]
	pf.lastSeq = -2
}

// Flush implements extmem.Backend: drain the dirty-frame batch to the device
// and wait for the flusher to land every queued segment. A deferred async
// failure is returned here (it also panics at the next charged operation).
func (e *engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.flushLocked() // a sync-mode failure is recorded in ioErr
	e.drainWritebackLocked()
	return e.ioErr
}

// Close implements extmem.Backend: flush, drain both workers, release the
// descriptor, and remove a retained backing file. Idempotent — including
// against a concurrent Close: the drain below releases the mutex, and the
// handle finalizer may fire mid-call (the *Engine becomes unreachable the
// moment a promoted method call extracts the inner engine), so a second
// caller must bail on the closing latch, not just on closed.
func (e *engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.closing {
		return nil
	}
	e.closing = true
	e.flushLocked() // a sync-mode failure is recorded in ioErr
	e.drainWritebackLocked()
	for len(e.pfQueue) > 0 || e.loading > 0 {
		e.ioCond.Wait()
	}
	e.closed = true
	if e.workersUp {
		e.quit = true
		e.ioCond.Broadcast()
		e.mu.Unlock()
		<-e.wbDone
		<-e.pfDone
		e.mu.Lock()
		e.workersUp = false
	}
	err := e.ioErr
	if cerr := e.f.Close(); err == nil {
		err = cerr
	}
	if e.path != "" {
		if rmErr := os.Remove(e.path); err == nil {
			err = rmErr
		}
	}
	return err
}

// DeviceStats implements extmem.Backend.
func (e *engine) DeviceStats() extmem.DeviceStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// CachedFrames returns the number of frames currently resident (for tests).
func (e *engine) CachedFrames() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nFrames
}

func (e *engine) ensureOpen() {
	if e.closed {
		panic("diskfile: engine used after Close")
	}
}

// insertFrame adds an empty frame for key at the front of the LRU, reusing an
// evicted shell (and its cells capacity) when one is free: the steady-state
// evict-and-refetch churn of a scan larger than the cache allocates nothing.
func (e *engine) insertFrame(pf *pfile, key frameKey) *frame {
	var fr *frame
	if n := len(e.frameFree); n > 0 {
		fr = e.frameFree[n-1]
		e.frameFree = e.frameFree[:n-1]
		fr.key, fr.pf, fr.cells = key, pf, fr.cells[:0]
	} else {
		fr = &frame{key: key, pf: pf}
	}
	fr.elem = e.lru.PushFront(fr)
	for len(pf.frames) <= key.idx {
		pf.frames = append(pf.frames, nil)
	}
	pf.frames[key.idx] = fr
	e.nFrames++
	return fr
}

func (e *engine) dropFrame(fr *frame) {
	if fr.prefetched {
		fr.prefetched = false
		e.stats.PrefetchWasted++
	}
	e.lru.Remove(fr.elem)
	fr.pf.frames[fr.key.idx] = nil
	e.nFrames--
	delete(e.dirty, fr.key)
	fr.pf, fr.elem, fr.dirty, fr.loading = nil, nil, false, false
	e.frameFree = append(e.frameFree, fr)
}

// evictLocked enforces the M/B-frame cache capacity. Evicting a dirty victim
// drains the whole dirty batch first — the victim leaves clean, and the batch
// gets its coalescing shot at the same time. A latched victim is waited for,
// never skipped: the LRU's deterministic victim choice is part of the
// telemetry contract.
func (e *engine) evictLocked() {
	for e.nFrames > e.capFrames {
		victim := e.lru.Back().Value.(*frame)
		if victim.loading {
			e.waitFrameLoaded(victim)
			continue
		}
		if victim.dirty {
			if err := e.flushLocked(); err != nil {
				panic(err)
			}
			continue
		}
		e.dropFrame(victim)
		e.stats.Evictions++
	}
}

// fetchFrame demand-reads one frame from the device into the cache. The
// telemetry and cache decisions happen here, under the mutex, at the charged
// operation; in async mode the pread itself runs with the mutex released.
func (e *engine) fetchFrame(pf *pfile, phys uint64, k int) *frame {
	fr := e.insertFrame(pf, frameKey{phys, k})
	e.stats.BlockReads++
	e.stats.ReadCalls++
	if e.syncDev {
		fr.cells = e.pread(pf.offs[k], pf.devCells[k], fr.cells)
		return fr
	}
	fr.loading = true
	e.noteLoading()
	e.loadGroup([]*frame{fr}, pf.offs[k], []int{pf.devCells[k]}, true)
	e.checkAsyncErr()
	return fr
}

// noteLoading tracks the in-flight load count and its high-water telemetry.
func (e *engine) noteLoading() {
	e.loading++
	if n := int64(e.loading); n > e.stats.PrefetchInFlight {
		e.stats.PrefetchInFlight = n
	}
}

// loadGroup performs one latched group load — a single pread covering a
// contiguous run of frames — releasing the mutex across the syscall. The
// caller (demand read, steal, or the prefetch worker) must already have set
// every frame's loading latch and charged the counters. Queued writebacks of
// the frames are waited out first — the device copy must be current before it
// is read back.
func (e *engine) loadGroup(frs []*frame, off int64, cells []int, demand bool) {
	for _, fr := range frs {
		if e.wbPending[fr.key] > 0 {
			if demand {
				e.stats.DemandWaits++
				demand = false
			}
			for e.wbPending[fr.key] > 0 {
				e.ioCond.Wait()
			}
		}
	}
	fb := int(frs[0].pf.frameBytes)
	nbytes := fb*(len(frs)-1) + cells[len(frs)-1]*8
	buf := getBuf(nbytes)
	var out devOutcome
	if e.ioErr != nil {
		// A failed writeback (ENOSPC, say) may have left these frames off the
		// device; reading past the arena's end would only be retried until
		// the device is declared dead. The latched error already aborts the
		// run at the next charged operation.
		out.err = e.ioErr
	} else {
		e.mu.Unlock()
		out = e.devReadAt(buf, off)
		e.mu.Lock()
		e.foldDev(opRead, out)
	}
	if out.err != nil {
		k := frs[0].key
		e.failAsync(fmt.Errorf("%w (phys %d frame %d, %d frames)", out.err, k.phys, k.idx, len(frs)))
	} else {
		for i, fr := range frs {
			n := cells[i]
			if cap(fr.cells) < n {
				fr.cells = make([]int64, n)
			}
			fr.cells = fr.cells[:n]
			b := buf[i*fb:]
			for j := range fr.cells {
				fr.cells[j] = int64(binary.LittleEndian.Uint64(b[j*8:]))
			}
		}
	}
	putBuf(buf)
	for _, fr := range frs {
		fr.loading = false
	}
	e.loading -= len(frs)
	e.ioCond.Broadcast()
}

// stealQueuedLoad claims the queued prefetch group containing fr (if the
// worker has not yet dequeued it) and performs the load on the calling
// (demand) goroutine: a scanner outpacing the worker fetches for itself
// instead of blocking behind the worker's schedule. Counters are untouched —
// the load was fully charged at enqueue time — so the steal is invisible to
// the deterministic telemetry.
func (e *engine) stealQueuedLoad(fr *frame) bool {
	for i, req := range e.pfQueue {
		for _, qf := range req.frs {
			if qf == fr {
				e.pfQueue = append(e.pfQueue[:i], e.pfQueue[i+1:]...)
				e.loadGroup(req.frs, req.off, req.cells, true)
				return true
			}
		}
	}
	return false
}

// prefetch pulls up to readAhead device-resident frames following a detected
// sequential scan into the cache ahead of their demand, coalescing
// offset-contiguous runs into single preads — the read-side mirror of the
// write batcher. Grouping is decided here, under the mutex, at the charged
// operation, so the ReadCalls telemetry is deterministic and identical across
// the sync and async pipelines; in async mode the frames are inserted and
// latched here (so the cache-hit accounting of later reads is unchanged) and
// the preads happen on the worker.
func (e *engine) prefetch(pf *pfile, phys uint64, from int) {
	var (
		frs   []*frame
		cells []int
		off   int64
	)
	flush := func() {
		if len(frs) == 0 {
			return
		}
		e.stats.ReadCalls++
		if e.syncDev {
			e.preadGroup(frs, off, cells)
		} else {
			for _, fr := range frs {
				fr.loading = true
				e.noteLoading()
			}
			e.pfQueue = append(e.pfQueue, &loadReq{frs: frs, off: off, cells: cells})
		}
		frs, cells = nil, nil
	}
	for k := from; k < from+e.readAhead; k++ {
		if k >= len(pf.offs) || pf.offs[k] < 0 || pf.devCells[k] == 0 {
			break
		}
		if pf.frame(k) != nil {
			flush()
			continue
		}
		if len(frs) > 0 && pf.offs[k] != off+int64(len(frs))*pf.frameBytes {
			flush()
		}
		fr := e.insertFrame(pf, frameKey{phys, k})
		fr.prefetched = true
		e.stats.Prefetched++
		e.stats.BlockReads++
		if len(frs) == 0 {
			off = pf.offs[k]
		}
		frs = append(frs, fr)
		cells = append(cells, pf.devCells[k])
	}
	flush()
	if !e.syncDev {
		e.ioCond.Broadcast()
	}
}

// prefetchWorker drains the read-ahead queue, one latched group load at a
// time.
func (e *engine) prefetchWorker() {
	e.mu.Lock()
	for {
		for len(e.pfQueue) == 0 && !e.quit {
			e.ioCond.Wait()
		}
		if len(e.pfQueue) == 0 {
			break
		}
		req := e.pfQueue[0]
		e.pfQueue = e.pfQueue[1:]
		e.loadGroup(req.frs, req.off, req.cells, false)
	}
	e.mu.Unlock()
	close(e.pfDone)
}

// flushLocked forms every dirty frame into coalesced segments — allocating
// device space in deterministic (phys, frame) order — and either writes them
// inline (sync mode) or enqueues them for the flusher. Formation is identical
// in both modes, so the WriteCalls/BlockWrites telemetry is too. Backpressure
// applies before formation: if the queue is full we wait (releasing the
// mutex) for the flusher, then re-check the dirty set, since formation plus
// enqueue must be atomic under the mutex to keep same-frame segments in FIFO
// order.
//
// A sync-mode device failure is returned (typed, and recorded via failAsync —
// exactly the async semantics): charged callers panic with it so the abort
// unwinds through CatchAbort, while Flush and Close — where a panic has no
// catcher — return it as an error.
func (e *engine) flushLocked() error {
	if !e.syncDev {
		for len(e.wbQueue) >= maxQueuedSegs {
			e.ioCond.Wait()
		}
	}
	if len(e.dirty) == 0 {
		return nil
	}
	e.stats.Flushes++
	frames := make([]*frame, 0, len(e.dirty))
	for _, fr := range e.dirty {
		frames = append(frames, fr)
	}
	// Allocate in (phys, frame) order, then write in offset order: map
	// iteration order must not leak into allocation decisions, or the
	// coalescing runs — and the WriteCalls telemetry — would vary run to run.
	sort.Slice(frames, func(i, j int) bool {
		if frames[i].key.phys != frames[j].key.phys {
			return frames[i].key.phys < frames[j].key.phys
		}
		return frames[i].key.idx < frames[j].key.idx
	})
	for _, fr := range frames {
		e.ensureAlloc(fr.pf, fr.key.idx)
	}
	sort.Slice(frames, func(i, j int) bool {
		return frames[i].pf.offs[frames[i].key.idx] < frames[j].pf.offs[frames[j].key.idx]
	})
	for i := 0; i < len(frames); {
		// Find the offset-contiguous run starting at i and size its buffer.
		runOff := frames[i].pf.offs[frames[i].key.idx]
		next := runOff
		j := i
		for j < len(frames) {
			fr := frames[j]
			if fr.pf.offs[fr.key.idx] != next {
				break
			}
			next += int64(len(fr.cells)) * 8
			j++
		}
		seg := &wbSeg{off: runOff, buf: getBuf(int(next - runOff))[:0], keys: make([]frameKey, 0, j-i)}
		for ; i < j; i++ {
			fr := frames[i]
			fpf := fr.pf
			for _, c := range fr.cells {
				seg.buf = binary.LittleEndian.AppendUint64(seg.buf, uint64(c))
			}
			fpf.devCells[fr.key.idx] = len(fr.cells)
			fr.dirty = false
			delete(e.dirty, fr.key)
			seg.keys = append(seg.keys, fr.key)
		}
		e.stats.WriteCalls++
		e.stats.BlockWrites += int64(len(seg.keys))
		if e.syncDev {
			out := e.devWriteAt(seg.buf, seg.off)
			e.foldDev(opWrite, out)
			putBuf(seg.buf)
			if out.err != nil {
				e.failAsync(out.err)
				return out.err
			}
			continue
		}
		for _, k := range seg.keys {
			e.wbPending[k]++
			e.physPending[k.phys]++
		}
		e.wbQueue = append(e.wbQueue, seg)
		if n := int64(len(e.wbQueue)); n > e.stats.FlushQueueHiWater {
			e.stats.FlushQueueHiWater = n
		}
	}
	if !e.syncDev {
		e.ioCond.Broadcast()
	}
	return nil
}

// writebackWorker is the flusher: it claims the whole queued backlog in FIFO
// order, pwrites the segments with the mutex released, and publishes every
// completion in one wakeup — draining in batches keeps the lock/wakeup cost
// per segment negligible, so a producer in a flush burst rarely hits
// backpressure. FIFO matters — two queued segments may target the same frame
// (re-dirtied between flushes) or a freed-and-reused device offset, and queue
// order is the order the device must observe.
func (e *engine) writebackWorker() {
	e.mu.Lock()
	for {
		for len(e.wbQueue) == 0 && !e.quit {
			e.ioCond.Wait()
		}
		if len(e.wbQueue) == 0 {
			break
		}
		batch := e.wbQueue
		e.wbQueue = nil
		overlapped := e.wbWaiters == 0
		e.wbActive = true
		e.mu.Unlock()
		var firstErr error
		var outs devOutcome
		for _, seg := range batch {
			if firstErr == nil {
				if out := e.devWriteAt(seg.buf, seg.off); out.err != nil {
					k := seg.keys[0]
					firstErr = fmt.Errorf("%w (phys %d frame %d, %d frames)",
						out.err, k.phys, k.idx, len(seg.keys))
					outs.retries += out.retries
					outs.backoff += out.backoff
					outs.err = out.err
				} else {
					outs.retries += out.retries
					outs.backoff += out.backoff
				}
			}
			putBuf(seg.buf)
		}
		e.mu.Lock()
		e.wbActive = false
		e.foldDev(opWrite, outs)
		if firstErr != nil {
			e.failAsync(firstErr)
		}
		if overlapped {
			e.stats.OverlappedWrites += int64(len(batch))
		}
		for _, seg := range batch {
			for _, k := range seg.keys {
				if e.wbPending[k]--; e.wbPending[k] == 0 {
					delete(e.wbPending, k)
				}
				if e.physPending[k.phys]--; e.physPending[k.phys] == 0 {
					delete(e.physPending, k.phys)
				}
			}
		}
		e.ioCond.Broadcast()
	}
	e.mu.Unlock()
	close(e.wbDone)
}

// drainWritebackLocked blocks until the flusher has landed every queued
// segment. No-op in sync mode.
func (e *engine) drainWritebackLocked() {
	if e.syncDev {
		return
	}
	e.wbWaiters++
	for len(e.wbQueue) > 0 || e.wbActive {
		e.ioCond.Wait()
	}
	e.wbWaiters--
}

// ensureAlloc gives frame k of pf a device offset, reusing freed frames of
// the same size class before growing the file.
func (e *engine) ensureAlloc(pf *pfile, k int) {
	for len(pf.offs) <= k {
		pf.offs = append(pf.offs, -1)
		pf.devCells = append(pf.devCells, 0)
	}
	if pf.offs[k] >= 0 {
		return
	}
	if fl := e.free[pf.frameBytes]; len(fl) > 0 {
		pf.offs[k] = fl[len(fl)-1]
		e.free[pf.frameBytes] = fl[:len(fl)-1]
		return
	}
	pf.offs[k] = e.devEnd
	e.devEnd += pf.frameBytes
}

// preadGroup reads one contiguous run of frames with a single pread, inline
// under the mutex (sync mode). The byte layout matches loadGroup: frame i of
// the run starts at off + i*frameBytes, and only the final frame may be
// partial on the device (a mid-run gap is always backed by the later frames'
// written bytes, so the single pread never crosses EOF).
func (e *engine) preadGroup(frs []*frame, off int64, cells []int) {
	fb := int(frs[0].pf.frameBytes)
	nbytes := fb*(len(frs)-1) + cells[len(frs)-1]*8
	if cap(e.scratch) < nbytes {
		e.scratch = make([]byte, nbytes)
	}
	buf := e.scratch[:nbytes]
	out := e.devReadAt(buf, off)
	e.foldDev(opRead, out)
	if out.err != nil {
		e.failAsync(out.err)
		panic(out.err)
	}
	for i, fr := range frs {
		n := cells[i]
		if cap(fr.cells) < n {
			fr.cells = make([]int64, n)
		}
		fr.cells = fr.cells[:n]
		b := buf[i*fb:]
		for j := range fr.cells {
			fr.cells[j] = int64(binary.LittleEndian.Uint64(b[j*8:]))
		}
	}
}

// pread reads cells cells at a device offset into dst (reused if possible);
// sync mode only — the mutex is held across the syscall by design there.
func (e *engine) pread(off int64, cells int, dst []int64) []int64 {
	nbytes := cells * 8
	if cap(e.scratch) < nbytes {
		e.scratch = make([]byte, nbytes)
	}
	buf := e.scratch[:nbytes]
	out := e.devReadAt(buf, off)
	e.foldDev(opRead, out)
	if out.err != nil {
		e.failAsync(out.err)
		panic(out.err)
	}
	if cap(dst) < cells {
		dst = make([]int64, cells)
	}
	dst = dst[:cells]
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return dst
}
