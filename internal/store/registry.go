package store

import (
	"fmt"
	"sync"
)

// Registry is the member registry of a federation: the component
// backends currently attached, addressable by database name. The view
// engine's Ship resolves each operation's target backend through it, so
// callers need not know which member holds which constituent. It holds
// Backend values (not concrete stores) so a member can be served through
// a wrapper — fault injection today, remote transports later. Safe for
// concurrent use.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Backend
	order  []string
}

// NewRegistry returns an empty member registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]Backend{}}
}

// Add registers a member backend under its database name. Registering a
// second backend with the same name is an error.
func (r *Registry) Add(st Backend) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := st.Name()
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("store %s already registered", name)
	}
	r.byName[name] = st
	r.order = append(r.order, name)
	return nil
}

// Remove deregisters a member backend, reporting whether it was present.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; !ok {
		return false
	}
	delete(r.byName, name)
	for i, n := range r.order {
		if n == name {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return true
}

// Swap replaces the serving backend of an already-registered member,
// keeping its registration order. This is how tests and experiments
// interpose a fault-injecting wrapper (internal/store/chaos) around a
// live member without re-deriving the federation: integration artifacts
// reference the member by name, so serving-path routing picks up the
// wrapper transparently. The new backend must carry the same name.
func (r *Registry) Swap(name string, st Backend) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; !ok {
		return fmt.Errorf("store %s not registered", name)
	}
	if st.Name() != name {
		return fmt.Errorf("swap backend name %s does not match registration %s", st.Name(), name)
	}
	r.byName[name] = st
	return nil
}

// Get resolves a member backend by database name.
func (r *Registry) Get(name string) (Backend, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st, ok := r.byName[name]
	return st, ok
}

// Names lists the registered member names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string{}, r.order...)
}

// Stores lists the registered backends in registration order.
func (r *Registry) Stores() []Backend {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Backend, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.byName[n])
	}
	return out
}
