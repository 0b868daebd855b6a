// Package join runs worker goroutines whose panics reach the goroutine
// that waits for them. A panic on a goroutine of its own ends the process
// whatever its caller recovers; through a Group it is raised again by
// Wait, where the caller's recover sees it.
package join

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Panic is a panic raised on a Group's goroutine: its value and the
// stack of the goroutine that raised it.
type Panic struct {
	Value any
	Stack []byte
}

// Error is the panic value and the stack it was raised on, which is what
// the runtime prints should the panic go unrecovered.
func (p *Panic) Error() string { return fmt.Sprintf("%v\n\n%s", p.Value, p.Stack) }

// Group is a sync.WaitGroup whose goroutines' panics are recovered and
// the first raised again, as a *Panic, by Wait. The zero Group is ready.
type Group struct {
	wg    sync.WaitGroup
	mu    sync.Mutex
	first *Panic
}

// Go runs fn on a new goroutine of the group.
func (g *Group) Go(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.Do(fn)
	}()
}

// Do runs fn on the calling goroutine as one of the group's: its panic
// is recovered, and raised by Wait once the others return.
func (g *Group) Do(fn func()) {
	if p := Catch(fn); p != nil {
		g.mu.Lock()
		if g.first == nil {
			g.first = p
		}
		g.mu.Unlock()
	}
}

// Catch runs fn and returns its panic, or nil if it returns: for a
// goroutine that hands its outcome over a channel, whose receiver raises
// the panic again.
func Catch(fn func()) (p *Panic) {
	defer func() {
		if v := recover(); v != nil {
			p = &Panic{Value: v, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// Wait returns when every goroutine of the group has, and panics with the
// first of their panics, if any.
func (g *Group) Wait() {
	g.wg.Wait()
	if g.first != nil {
		panic(g.first)
	}
}
