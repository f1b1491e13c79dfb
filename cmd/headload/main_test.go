package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"head/internal/serve"
	"head/internal/world"
)

// TestDeltaClientRebasesOnBrokenChain drives the delta client through a
// one-step chain and then a snapshot of the same length that does not
// continue it, as after an env reset. The server would splice a delta
// onto its cached (stale) base, so the client must send that snapshot in
// full.
func TestDeltaClientRebasesOnBrokenChain(t *testing.T) {
	var mu sync.Mutex
	var kinds []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := serve.DecodeRequest(body, nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		kinds = append(kinds, req.Kind)
		mu.Unlock()
		w.Write(serve.AppendResponse(nil, &serve.DecideResponse{})) //nolint:errcheck // test reply
	}))
	defer srv.Close()

	frame := func(lon float64) serve.Frame {
		return serve.Frame{AV: world.State{Lat: 2, Lon: lon, V: 20}}
	}
	lc := &loadClient{client: srv.Client(), base: srv.URL, wire: "delta", session: "s-1"}
	snapshots := [][]serve.Frame{
		{frame(0), frame(10), frame(20)},     // first request: full
		{frame(10), frame(20), frame(30)},    // one step later: delta
		{frame(500), frame(510), frame(520)}, // new episode, same length: full
	}
	for i, frames := range snapshots {
		if _, _, _, err := lc.decide("r", frames); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	want := []byte{serve.WireFull, serve.WireDelta, serve.WireFull}
	mu.Lock()
	defer mu.Unlock()
	if string(kinds) != string(want) {
		t.Fatalf("request kinds %v, want %v (full, delta, full)", kinds, want)
	}
}
