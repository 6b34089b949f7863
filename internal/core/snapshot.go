package core

import (
	"sync"
	"sync/atomic"

	"xmlac/internal/cam"
)

// Everything the request path derives from the store — the CAM query
// cache, the rewriter's allow/deny scope sets and the per-rule match map
// behind Why — is a function of the store version alone. A snapshot
// carries those artifacts for one version: each is built by the first
// reader that needs it and shared by every later reader of that version.
// Loads, annotations and updates replace the whole snapshot (advance), so
// an artifact of an older version is unreachable instead of detected.

// snapshot is the derived state of one store version.
type snapshot struct {
	version uint64
	cam     lazy[cam.Map]
	scopes  lazy[scopeSets]
	attr    lazy[map[int64][]int32] // matching rule indices per node id
}

// lazy is one derived artifact: built at most once by concurrent first
// readers, then read without a lock. A failed build is not remembered,
// so the next reader retries it.
type lazy[T any] struct {
	mu sync.Mutex // held only while building
	v  atomic.Pointer[T]
}

// get returns the artifact, building it on first use; hit reports whether
// it was already built when the call found it.
func (l *lazy[T]) get(build func() (*T, error)) (v *T, hit bool, err error) {
	if v = l.v.Load(); v != nil {
		return v, true, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if v = l.v.Load(); v != nil {
		return v, true, nil
	}
	if v, err = build(); err != nil {
		return nil, false, err
	}
	l.v.Store(v)
	return v, false, nil
}

// advance moves the System to the next store version, dropping every
// artifact derived from the current one. Callers hold s.mu exclusively
// and call it once the store is committed to change.
func (s *System) advance() {
	s.snap = &snapshot{version: s.snap.version + 1}
}
