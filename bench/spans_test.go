package main

import "testing"

// A layer's self time is its span minus what its direct children cover;
// grandchildren are the children's to subtract, and spans outside the
// subtree are ignored.
func TestSelfTimeSubtraction(t *testing.T) {
	l := &spanLog{recs: []spanRec{
		{name: "other", parent: -1, start: 0, end: 50},
		{name: "step", parent: -1, start: 100, end: 200}, // 1: the root under test
		{name: "solve", parent: 1, start: 110, end: 150}, // 2
		{name: "rows", parent: 2, start: 115, end: 125},  // 3: grandchild
		{name: "solve", parent: 1, start: 160, end: 190}, // 4
		{name: "open", parent: 1, start: 195},            // 5: never closed
		{name: "later", parent: -1, start: 300, end: 400},
		{name: "rows", parent: 6, start: 310, end: 320}, // child of "later", not of the root
	}}
	got := l.selfTimes(1)
	want := map[string]int64{
		"step":  100 - 40 - 30, // both solves subtracted, the grandchild not again
		"solve": (40 - 10) + 30,
		"rows":  10,
	}
	if len(got) != len(want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %q = %d, want %d", name, got[name], w)
		}
	}
}

func TestSpanLogNesting(t *testing.T) {
	l := newSpanLog(nil, "test") // a nil tracer records nothing but the log's own tree
	a := l.begin("a")
	b := l.begin("b")
	l.end(b)
	c := l.begin("c")
	l.end(c)
	l.end(a)
	if l.recs[b].parent != a || l.recs[c].parent != a || l.recs[a].parent != -1 {
		t.Errorf("parents: a=%d b=%d c=%d", l.recs[a].parent, l.recs[b].parent, l.recs[c].parent)
	}
	defer func() {
		if recover() == nil {
			t.Error("closing a span that is not innermost did not panic")
		}
	}()
	x := l.begin("x")
	l.begin("y")
	l.end(x)
}
