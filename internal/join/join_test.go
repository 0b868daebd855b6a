package join

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestWaitRaisesTheFirstPanic: Wait returns once every goroutine has,
// and raises a goroutine's panic on the waiting goroutine with the value
// and the stack it was raised on.
func TestWaitRaisesTheFirstPanic(t *testing.T) {
	var g Group
	var done atomic.Int32
	for i := 0; i < 4; i++ {
		g.Go(func() {
			done.Add(1)
			if i == 2 {
				panic("boom")
			}
		})
	}
	defer func() {
		p, ok := recover().(*Panic)
		if !ok || p.Value != "boom" || !strings.Contains(string(p.Stack), "join.TestWaitRaisesTheFirstPanic") {
			t.Fatalf("Wait raised %#v, want the goroutine's panic and stack", p)
		}
		if done.Load() != 4 {
			t.Fatalf("Wait raised before all goroutines returned: %d of 4", done.Load())
		}
	}()
	g.Wait()
	t.Fatal("Wait returned past a panic")
}

// TestWaitWithoutPanic: a group whose goroutines all return waits for
// them and returns.
func TestWaitWithoutPanic(t *testing.T) {
	var g Group
	var done atomic.Int32
	for i := 0; i < 3; i++ {
		g.Go(func() { done.Add(1) })
	}
	g.Wait()
	if done.Load() != 3 {
		t.Fatalf("%d of 3 goroutines done", done.Load())
	}
}
