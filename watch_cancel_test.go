package netchain

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestWatchCancelWhileStreaming cancels wire watches while a writer keeps
// their stream busy, so cancellation races event delivery on the relay
// subscription's receive goroutine. Every channel must still close: a
// teardown run from inside a delivery would wait for that same goroutine
// and hang.
func TestWatchCancelWhileStreaming(t *testing.T) {
	cl, err := StartLocalCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	writer, err := cl.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	observer, err := cl.NewClient(1)
	if err != nil {
		t.Fatal(err)
	}
	defer observer.Close()

	k := KeyFromString("cancel/hot")
	if err := cl.Insert(k); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // keep the stream busy until the test ends
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = writer.Write(k, Value(fmt.Sprint(n)))
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for i := 0; i < 500; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		ch, err := observer.Watch(ctx, []Key{k}, WithResyncInterval(time.Millisecond))
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		select {
		case <-ch: // the stream is live
		case <-time.After(5 * time.Second):
			cancel()
			t.Fatalf("watch %d: no event", i)
		}
		cancel()
		deadline := time.After(5 * time.Second)
		for open := true; open; {
			select {
			case _, open = <-ch:
			case <-deadline:
				t.Fatalf("watch %d: channel still open 5s after cancel", i)
			}
		}
	}
}
