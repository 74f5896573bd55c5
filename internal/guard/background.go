package guard

import "sync"

// background is the extension's background.js analogue: the metadata
// store mapping cookie names to their creator eTLD+1. The page wrapper
// queries it synchronously, one name at a time; the contentScript.js
// relay hop in between is charged to the virtual clock
// (Policy.PerOpOverheadMS), not modeled by a goroutine.
type background struct {
	mu       sync.Mutex
	creators map[string]string
}

func newBackground() *background {
	return &background{creators: map[string]string{}}
}

// record registers a cookie creation (first creator wins, matching the
// extension's dataset semantics).
func (b *background) record(name, creator string) {
	b.mu.Lock()
	if _, exists := b.creators[name]; !exists {
		b.creators[name] = creator
	}
	b.mu.Unlock()
}

// lookup fetches one cookie's creator.
func (b *background) lookup(name string) (string, bool) {
	b.mu.Lock()
	c, ok := b.creators[name]
	b.mu.Unlock()
	return c, ok
}

// creatorOf is lookup ignoring existence.
func (b *background) creatorOf(name string) string {
	c, _ := b.lookup(name)
	return c
}
