// Package registry is the one name → stream table of the daemon
// (internal/server) and the library facade (internal/multi); the
// federation coordinator keeps its peers in one too. A stream comes to
// exist in three steps: Reserve claims its name and charges its slots
// against an optional budget, the caller builds the stream with no
// registry lock held, and Publish registers it or Abandon gives the name
// and the slots back. Close refuses new reservations and waits for those
// in flight.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// The errors a refused Reserve or Publish wraps.
var (
	ErrExists = errors.New("already exists")
	ErrBudget = errors.New("budget exhausted")
	ErrClosed = errors.New("closed")
)

// entry is a live value or, with held set, a reservation.
type entry[V any] struct {
	v     V
	slots int
	held  bool
}

// Registry maps names to values of type V. Create it with New.
type Registry[V any] struct {
	mu           sync.RWMutex
	m            map[string]entry[V]
	live         int
	budget, used int // budget 0 is unlimited
	closed       bool
	inflight     sync.WaitGroup // reservations
}

// New returns an empty registry charging reservations against budget
// slots; 0 means unlimited.
func New[V any](budget int) *Registry[V] {
	return &Registry[V]{m: make(map[string]entry[V]), budget: budget}
}

// Reserve claims name and charges slots for a stream about to be built.
// A held name is absent to Get and List, and refused to a second Reserve,
// until Publish or Abandon ends the reservation.
func (r *Registry[V]) Reserve(name string, slots int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, taken := r.m[name]
	switch {
	case r.closed:
		return ErrClosed
	case taken:
		return fmt.Errorf("stream %q %w", name, ErrExists)
	case r.budget > 0 && slots > r.budget-r.used:
		return fmt.Errorf("%w: %d used + %d requested > %d total", ErrBudget, r.used, slots, r.budget)
	}
	r.m[name] = entry[V]{slots: slots, held: true}
	r.used += slots
	r.inflight.Add(1)
	return nil
}

// Publish registers v under name, ending its reservation. Once Close has
// begun it registers nothing and returns ErrClosed; the name stays held
// until the caller, done cleaning up, calls Abandon.
func (r *Registry[V]) Publish(name string, v V) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	r.m[name] = entry[V]{v: v, slots: r.m[name].slots}
	r.live++
	r.inflight.Done()
	return nil
}

// Abandon ends name's reservation and refunds its slots. It ignores a
// name that is not held.
func (r *Registry[V]) Abandon(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.m[name]; ok && e.held {
		delete(r.m, name)
		r.used -= e.slots
		r.inflight.Done()
	}
}

// Remove unregisters name's live value and refunds its slots. With hold
// set the name stays reserved until Abandon, so a stream torn down outside
// the lock cannot race a new one of the same name; once Close has begun
// nothing is held. It reports whether name was live.
func (r *Registry[V]) Remove(name string, hold bool) (V, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.m[name]
	if !ok || e.held {
		return e.v, false
	}
	delete(r.m, name)
	r.live--
	r.used -= e.slots
	if hold && !r.closed {
		r.m[name] = entry[V]{held: true}
		r.inflight.Add(1)
	}
	return e.v, true
}

// Get returns name's live value.
func (r *Registry[V]) Get(name string) (V, bool) {
	r.mu.RLock()
	e, ok := r.m[name]
	r.mu.RUnlock()
	return e.v, ok && !e.held
}

// GetBytes is Get for a name held in bytes. The map probe converts the
// name without allocating, so the wire ingest path can use it.
func (r *Registry[V]) GetBytes(name []byte) (V, bool) {
	r.mu.RLock()
	e, ok := r.m[string(name)]
	r.mu.RUnlock()
	return e.v, ok && !e.held
}

// List returns the live values in name order. It sorts after letting the
// lock go: a Reserve queued behind a long hold would stall every Get.
func (r *Registry[V]) List() []V {
	type named struct {
		name string
		v    V
	}
	r.mu.RLock()
	list := make([]named, 0, r.live)
	for name, e := range r.m {
		if !e.held {
			list = append(list, named{name, e.v})
		}
	}
	r.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	out := make([]V, len(list))
	for i, n := range list {
		out[i] = n.v
	}
	return out
}

// Len returns the number of live values.
func (r *Registry[V]) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.live
}

// Used returns the slots charged to live values and reservations.
func (r *Registry[V]) Used() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.used
}

// Close refuses every later Reserve and Publish, then waits until each
// reservation made before it has been published or abandoned.
func (r *Registry[V]) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.inflight.Wait()
}
