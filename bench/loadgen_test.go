package main

import (
	"sync"
	"testing"
	"time"
)

func everyInterval(n int, interval time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * interval
	}
	return due
}

// An open loop times each request from when it was due. When one request
// stalls the connection, the requests scheduled behind it are sent late,
// and that wait must show up in their latency and in the generator's
// lateness — a closed-loop timer would hide both.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		n        = 12
		interval = 2 * time.Millisecond
		stallAt  = 2
		stall    = 30 * time.Millisecond
	)
	fromDue := make([]time.Duration, n)
	fromSend := make([]time.Duration, n)
	late := openLoop(1, everyInterval(n, interval), func(_, i int, due time.Time) {
		sent := time.Now()
		if i == stallAt {
			time.Sleep(stall)
		}
		fromDue[i] = time.Since(due)
		fromSend[i] = time.Since(sent)
	})

	// Request 3 was due one interval after request 2 began its stall.
	if fromDue[stallAt+1] < stall-2*interval {
		t.Errorf("request behind the stall: latency from due time %v, want about %v", fromDue[stallAt+1], stall-interval)
	}
	if fromSend[stallAt+1] > 5*time.Millisecond {
		t.Errorf("request behind the stall took %v once sent; the test's premise is that it is fast", fromSend[stallAt+1])
	}
	if late < stall-2*interval {
		t.Errorf("generator lateness %v, want about %v", late, stall-interval)
	}
	// The backlog drains: the last request is late by less than the one
	// right behind the stall, because sends catch up one interval each.
	if fromDue[n-1] >= fromDue[stallAt+1] {
		t.Errorf("lateness did not drain: %v at the end, %v behind the stall", fromDue[n-1], fromDue[stallAt+1])
	}
	if fromDue[0] > 10*time.Millisecond {
		t.Errorf("request before the stall: latency %v", fromDue[0])
	}
}

// Workers take alternate schedule slots, so a stalled worker delays only
// its own later slots.
func TestOpenLoopAlternateSlots(t *testing.T) {
	const n = 10
	var mu sync.Mutex
	owner := make([]int, n)
	fromDue := make([]time.Duration, n)
	openLoop(2, everyInterval(n, 2*time.Millisecond), func(k, i int, due time.Time) {
		if i == 0 {
			time.Sleep(25 * time.Millisecond)
		}
		mu.Lock()
		owner[i] = k
		fromDue[i] = time.Since(due)
		mu.Unlock()
	})
	for i := range owner {
		if owner[i] != i%2 {
			t.Fatalf("slot %d ran on worker %d, want %d", i, owner[i], i%2)
		}
	}
	if fromDue[1] > 10*time.Millisecond {
		t.Errorf("slot 1 belongs to the other worker but waited %v behind slot 0's stall", fromDue[1])
	}
	if fromDue[2] < 15*time.Millisecond {
		t.Errorf("slot 2 shares a worker with the stalled slot 0 but waited only %v", fromDue[2])
	}
}
