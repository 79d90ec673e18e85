package ptx

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestDeriveKeepsOneResult: concurrent first calls of Derive for a key
// may each build, but all return the one result kept, and later calls
// build nothing; another key derives its own value.
func TestDeriveKeepsOneResult(t *testing.T) {
	type key struct{ n int }
	k := &Kernel{Name: "k"}
	var builds atomic.Int32
	build := func() any { builds.Add(1); return new(int) }
	got := make([]any, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = k.Derive(key{1}, build)
		}()
	}
	close(start)
	wg.Wait()
	for i, v := range got {
		if v != got[0] {
			t.Fatalf("call %d got %p, call 0 got %p", i, v, got[0])
		}
	}
	n := builds.Load()
	if k.Derive(key{1}, build) != got[0] || builds.Load() != n {
		t.Error("a later call built again or returned another result")
	}
	if k.Derive(key{2}, build) == got[0] {
		t.Error("another key returned the first key's result")
	}
}
