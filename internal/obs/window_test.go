package obs

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestWindowRotation pins the rotation edges shared by the SLO engine,
// the drift monitor and the exemplar ring: each step advances the clock
// and then adds to the current bucket, the clock then idles, and want
// lists the live buckets, oldest first.
func TestWindowRotation(t *testing.T) {
	type step struct {
		advance time.Duration
		add     int
	}
	cases := []struct {
		name  string
		n     int
		width time.Duration
		steps []step
		idle  time.Duration
		want  []int
	}{
		{
			name: "observation exactly on a bucket boundary opens the next bucket",
			n:    6, width: 10 * time.Second,
			steps: []step{{0, 1}, {10 * time.Second, 2}},
			want:  []int{1, 2},
		},
		{
			name: "the first bucket ages out exactly one window after it opened",
			n:    6, width: 10 * time.Second,
			steps: []step{{0, 1}, {10 * time.Second, 2}, {50 * time.Second, 4}},
			want:  []int{2, 4},
		},
		{
			name: "a gap of exactly one window keeps the previous generation",
			n:    2, width: time.Minute,
			steps: []step{{0, 1}, {time.Minute, 2}},
			want:  []int{1, 2},
		},
		{
			name: "an idle gap of exactly one window keeps the previous generation",
			n:    2, width: time.Minute,
			steps: []step{{0, 1}},
			idle:  time.Minute,
			want:  []int{1},
		},
		{
			name: "a recycled slot is reset before reuse",
			n:    2, width: time.Minute,
			steps: []step{{0, 1}, {time.Minute, 2}, {time.Minute, 4}},
			want:  []int{2, 4},
		},
		{
			name: "a gap of N buckets ages everything out",
			n:    2, width: time.Minute,
			steps: []step{{0, 1}},
			idle:  2 * time.Minute,
			want:  nil,
		},
		{
			name: "a gap of more than N buckets ages everything out",
			n:    6, width: 10 * time.Second,
			steps: []step{{0, 1}, {5 * time.Second, 2}},
			idle:  95 * time.Second,
			want:  nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := &fakeSLOClock{now: time.Unix(4000, 0)}
			w := NewWindow(tc.n, tc.width, clock.Now, func(b *int) { *b = 0 })
			for _, s := range tc.steps {
				clock.Advance(s.advance)
				w.Observe(func(b *int) { *b += s.add })
			}
			clock.Advance(tc.idle)
			var got []int
			w.Each(func(b *int) { got = append(got, *b) })
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("live buckets %v, want %v", got, tc.want)
			}
		})
	}
}

// TestWindowConcurrent hammers Observe and Each from many goroutines on a
// real clock; run under -race this is the window's thread-safety gate.
func TestWindowConcurrent(t *testing.T) {
	w := NewWindow(WindowBuckets, time.Hour, nil, func(b *int) { *b = 0 })
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w.Observe(func(b *int) { *b++ })
				if i%50 == 0 {
					w.Each(func(*int) {})
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	w.Each(func(b *int) { total += *b })
	if total != goroutines*perG {
		t.Errorf("window holds %d observations, want %d", total, goroutines*perG)
	}
}
