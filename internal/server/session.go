package server

import (
	"bufio"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/metrics"
)

// A session is one tenant's logical tracker. It is in exactly one of two
// states:
//
//	live     tr != nil; its estimated footprint is counted against the
//	         server's memory budget and it occupies a slot in the LRU.
//	spilled  tr == nil; the complete tracker state sits in a PIFTSES1
//	         file under the spill directory, and only this stub (id +
//	         acknowledged offset) stays resident — a few dozen bytes, which
//	         is what lets 10k+ logical sessions fit on a laptop.
//
// sess.mu serializes every use of the session's state: ingest, query,
// hydrate, dehydrate, finalize. Ingest holds it for the whole stream,
// which doubles as the per-tenant backpressure primitive — a second
// concurrent stream for the same tenant fails TryLock and is told to
// retry. The eviction scan also uses TryLock, so a session mid-ingest is
// simply skipped, never blocked on.
//
// Lock order: server.mu (registry/LRU/budget) is never held while
// blocking on a session.mu — eviction acquires sessions only via TryLock.
// A session holding its own mu may take server.mu (to update accounting),
// so the reverse edge is TryLock-only and the graph stays acyclic.
type session struct {
	id string

	mu    sync.Mutex
	tr    *core.Tracker // nil when spilled
	bytes int64         // resident estimate currently charged to the budget
	elem  *list.Element // LRU slot; nil when spilled

	// acked and spilled are written only under mu but read lock-free by
	// the session-list endpoint, hence atomic.
	acked   atomic.Uint64 // events applied over the session's lifetime
	spilled atomic.Bool
	// gen counts mutating ingests; the peek cache keys on it so cached
	// query snapshots invalidate the moment new events land.
	gen atomic.Uint64

	// Per-tenant series, resolved once so the ingest loop touches only
	// plain atomic counters.
	mBytes    *metrics.Counter
	mEvents   *metrics.Counter
	mVerdicts *metrics.Counter
	mStalls   *metrics.Counter
}

// sessionBaseBytes is the charge for an idle tracker: the struct, its
// empty maps, and the bookkeeping around it.
const sessionBaseBytes = 512

// estimateBytes prices a live tracker's resident state for budget
// accounting. The per-item weights approximate Go's real footprint (a
// window is a map slot plus a 3-word struct; a range is two u32 words in a
// slice; a verdict is a 4-word struct) — the budget enforces relative
// pressure, not an exact RSS.
func estimateBytes(tr *core.Tracker) int64 {
	return sessionBaseBytes +
		int64(tr.WindowCount())*64 +
		int64(tr.RangeCount())*16 +
		int64(len(tr.Verdicts()))*40
}

// spillPath maps a tenant ID — an arbitrary string — onto a fixed-length
// filename. Hashing sidesteps both path traversal and filesystem name
// limits; the ID itself is stored inside the file for restart recovery.
func (s *Server) spillPath(id string) string {
	sum := sha256.Sum256([]byte(id))
	return filepath.Join(s.cfg.SpillDir, hex.EncodeToString(sum[:16])+".sess")
}

// Session spill format — the hydrate/dehydrate envelope around the
// tracker's canonical PIFTSNP1 snapshot:
//
//	magic    [8]byte "PIFTSES1"
//	idLen    u32, id idLen bytes   (the tenant ID, for restart recovery)
//	acked    u64                   (checkpoint offset: events applied)
//	snapshot PIFTSNP1              (core.Tracker.WriteSnapshot)
//
// Because the snapshot codec is canonical (two semantically identical
// trackers serialize identically), dehydrate+hydrate is byte-exact: a
// session that round-trips through disk produces verdicts and stats
// byte-identical to one that never left memory.
var spillMagic = [8]byte{'P', 'I', 'F', 'T', 'S', 'E', 'S', '1'}

const spillMaxIDLen = 1 << 16

// dehydrate writes sess's state to its spill file and releases the
// tracker. Caller holds sess.mu; the session must be live and already
// removed from the LRU/budget accounting.
func (s *Server) dehydrate(sess *session) error {
	err := atomicfile.WriteFile(s.spillPath(sess.id), func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		if _, err := bw.Write(spillMagic[:]); err != nil {
			return err
		}
		var u32 [4]byte
		binary.LittleEndian.PutUint32(u32[:], uint32(len(sess.id)))
		if _, err := bw.Write(u32[:]); err != nil {
			return err
		}
		if _, err := bw.WriteString(sess.id); err != nil {
			return err
		}
		var u64 [8]byte
		binary.LittleEndian.PutUint64(u64[:], sess.acked.Load())
		if _, err := bw.Write(u64[:]); err != nil {
			return err
		}
		if _, err := sess.tr.WriteSnapshot(bw); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return fmt.Errorf("server: dehydrate %q: %w", sess.id, err)
	}
	sess.tr = nil
	sess.spilled.Store(true)
	s.m.dehydrates.Inc()
	s.m.sessionsLive.Dec()
	s.m.sessionsSpilled.Inc()
	return nil
}

// readSpillHeader decodes the envelope up to (and excluding) the snapshot,
// returning the embedded tenant ID and acknowledged offset.
func readSpillHeader(r io.Reader) (id string, acked uint64, err error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return "", 0, err
	}
	if magic != spillMagic {
		return "", 0, fmt.Errorf("bad spill magic %q", magic[:])
	}
	var u32 [4]byte
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return "", 0, err
	}
	n := binary.LittleEndian.Uint32(u32[:])
	if n > spillMaxIDLen {
		return "", 0, fmt.Errorf("implausible spill id length %d", n)
	}
	idb := make([]byte, n)
	if _, err := io.ReadFull(r, idb); err != nil {
		return "", 0, err
	}
	var u64 [8]byte
	if _, err := io.ReadFull(r, u64[:]); err != nil {
		return "", 0, err
	}
	return string(idb), binary.LittleEndian.Uint64(u64[:]), nil
}

// hydrate restores sess's tracker from its spill file. Caller holds
// sess.mu. The spill file is left in place; it is superseded by the next
// dehydrate and removed at finalize.
func (s *Server) hydrate(sess *session) error {
	path := s.spillPath(sess.id)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("server: hydrate %q: %w", sess.id, err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	id, acked, err := readSpillHeader(br)
	if err != nil {
		return fmt.Errorf("server: hydrate %q: %s: %w", sess.id, path, err)
	}
	if id != sess.id {
		return fmt.Errorf("server: hydrate %q: spill file holds session %q", sess.id, id)
	}
	tr, err := core.ReadSnapshot(br)
	if err != nil {
		return fmt.Errorf("server: hydrate %q: %w", sess.id, err)
	}
	if tr.Config() != s.cfg.Tracker {
		return fmt.Errorf("server: hydrate %q: snapshot config %v differs from server config %v",
			sess.id, tr.Config(), s.cfg.Tracker)
	}
	sess.tr = tr
	sess.acked.Store(acked)
	sess.spilled.Store(false)
	s.m.hydrates.Inc()
	s.m.sessionsLive.Inc()
	s.m.sessionsSpilled.Dec()

	// Back into the budget: charge the restored footprint and make the
	// session the hottest entry, then shed whatever the budget no longer
	// covers. (Caller still holds sess.mu; enforceBudget skips it.)
	sess.bytes = estimateBytes(tr)
	s.mu.Lock()
	s.liveBytes += sess.bytes
	sess.elem = s.lru.PushFront(sess)
	s.mu.Unlock()
	s.enforceBudget()
	return nil
}

// touch marks sess as most recently used and re-prices its footprint.
// Caller holds sess.mu; sess must be live.
func (s *Server) touch(sess *session) {
	now := estimateBytes(sess.tr)
	s.mu.Lock()
	s.liveBytes += now - sess.bytes
	sess.bytes = now
	if sess.elem != nil {
		s.lru.MoveToFront(sess.elem)
	} else {
		sess.elem = s.lru.PushFront(sess)
	}
	s.mu.Unlock()
}

// enforceBudget dehydrates cold sessions until the estimated live bytes
// fit the budget. Victims are taken coldest-first; a session whose mu is
// held (mid-ingest or mid-query) is skipped rather than waited for. The
// scan gives up when nothing is evictable — the budget is a target under
// concurrent load, not a hard fence.
//
// Evictions are batched: one pass under server.mu collects every victim
// the budget demands (each claimed by TryLock, so nothing blocks), then
// the whole group's spill files are written in one IO burst outside the
// lock. Compared to the old one-victim-per-lock-cycle loop, a budget
// overshoot that used to cost N lock acquisitions and N interleaved
// scans now costs one of each — the writes themselves stay per-session
// atomicfile renames, which is what restart recovery depends on.
func (s *Server) enforceBudget() {
	for {
		s.mu.Lock()
		var victims []*session
		for e := s.lru.Back(); e != nil && s.liveBytes > s.cfg.MemoryBudget; {
			prev := e.Prev()
			cand := e.Value.(*session)
			if cand.mu.TryLock() {
				s.lru.Remove(cand.elem)
				cand.elem = nil
				s.liveBytes -= cand.bytes
				cand.bytes = 0
				victims = append(victims, cand)
			}
			e = prev
		}
		s.mu.Unlock()
		if len(victims) == 0 {
			return
		}
		s.m.spillBatches.Inc()
		s.m.spillBatchSessions.Add(uint64(len(victims)))

		// File IO happens outside server.mu so other tenants keep moving.
		failed := false
		for _, victim := range victims {
			if err := s.dehydrate(victim); err != nil {
				// Disk refused the spill: the tracker stays live and
				// charged; re-admit it as hottest so the next scan tries
				// colder prey first.
				victim.bytes = estimateBytes(victim.tr)
				s.mu.Lock()
				s.liveBytes += victim.bytes
				victim.elem = s.lru.PushFront(victim)
				s.mu.Unlock()
				s.m.spillErrors.Inc()
				failed = true
			} else {
				s.m.evictions.Inc()
			}
			victim.mu.Unlock()
		}
		if failed {
			return
		}
	}
}

// getOrCreate returns the session for a tenant ID, creating a fresh live
// one on first contact. The returned session may be in any state; callers
// must take sess.mu before touching it.
func (s *Server) getOrCreate(id string) *session {
	s.mu.Lock()
	sess := s.sessions[id]
	if sess == nil {
		sess = &session{
			id:        id,
			tr:        core.NewTracker(s.cfg.Tracker, nil),
			bytes:     sessionBaseBytes,
			mBytes:    s.m.tenantBytes.With(id),
			mEvents:   s.m.tenantEvents.With(id),
			mVerdicts: s.m.tenantVerdicts.With(id),
			mStalls:   s.m.tenantStalls.With(id),
		}
		s.sessions[id] = sess
		sess.elem = s.lru.PushFront(sess)
		s.liveBytes += sess.bytes
		s.m.sessionsCreated.Inc()
		s.m.sessionsLive.Inc()
	}
	s.mu.Unlock()
	return sess
}

// lookup returns the session for id, or nil.
func (s *Server) lookup(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// remove finalizes a session: drops it from the registry, the LRU, the
// budget, and the spill directory. Caller holds sess.mu.
func (s *Server) remove(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	if sess.elem != nil {
		s.lru.Remove(sess.elem)
		sess.elem = nil
		s.liveBytes -= sess.bytes
	}
	s.mu.Unlock()
	if sess.spilled.Load() {
		s.m.sessionsSpilled.Dec()
	} else {
		s.m.sessionsLive.Dec()
	}
	os.Remove(s.spillPath(sess.id))
	s.cache.drop(sess.id)
	sess.tr = nil
	sess.spilled.Store(false)
	s.m.finalized.Inc()
}

// peekSpilled decodes a spilled session's snapshot into a throwaway
// tracker without changing the session's residency: queries against
// dormant sessions must not churn the LRU or charge the budget. Caller
// holds sess.mu.
func (s *Server) peekSpilled(sess *session) (*core.Tracker, error) {
	f, err := os.Open(s.spillPath(sess.id))
	if err != nil {
		return nil, fmt.Errorf("server: peek %q: %w", sess.id, err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if _, _, err := readSpillHeader(br); err != nil {
		return nil, fmt.Errorf("server: peek %q: %w", sess.id, err)
	}
	tr, err := core.ReadSnapshot(br)
	if err != nil {
		return nil, fmt.Errorf("server: peek %q: %w", sess.id, err)
	}
	return tr, nil
}

func sortSummaries(ss []SessionSummary) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Session < ss[j].Session })
}

// recoverSpilled scans the spill directory at startup and re-registers
// every dehydrated session it finds as a spilled stub, so a restarted
// server resumes serving its tenants where the previous process left off.
// Only the envelope header is read; snapshots hydrate lazily on first use.
// A file whose header does not read (torn, empty or not PIFTSES1) costs
// its one session, not the server: it is renamed to <name>.corrupt, which
// the scan skips, and counted in pift_server_spill_quarantined_total.
func (s *Server) recoverSpilled() error {
	entries, err := os.ReadDir(s.cfg.SpillDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".sess" {
			continue
		}
		path := filepath.Join(s.cfg.SpillDir, e.Name())
		f, err := os.Open(path)
		var id string
		var acked uint64
		if err == nil {
			id, acked, err = readSpillHeader(bufio.NewReader(f))
			f.Close()
		}
		if err != nil {
			if err := os.Rename(path, path+".corrupt"); err != nil {
				return fmt.Errorf("server: quarantining %s: %w", path, err)
			}
			s.m.quarantined.Inc()
			continue
		}
		sess := &session{
			id:        id,
			mBytes:    s.m.tenantBytes.With(id),
			mEvents:   s.m.tenantEvents.With(id),
			mVerdicts: s.m.tenantVerdicts.With(id),
			mStalls:   s.m.tenantStalls.With(id),
		}
		sess.acked.Store(acked)
		sess.spilled.Store(true)
		s.sessions[id] = sess
		s.m.sessionsSpilled.Inc()
	}
	return nil
}
