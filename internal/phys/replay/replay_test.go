package replay

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/parallax-arch/parallax/internal/phys/workload"
)

func record(t *testing.T, steps int) *Recording {
	t.Helper()
	b, ok := workload.ByName("Breakable")
	if !ok {
		t.Fatal("Breakable benchmark missing")
	}
	w := b.Build(0.25)
	w.SetThreads(2)
	for i := 0; i < 10; i++ {
		w.Step()
	}
	return Record(w, "Breakable scale=0.25", steps)
}

// TestRecordVerify: a recording must replay clean at several thread
// counts, including ones different from the recording run.
func TestRecordVerify(t *testing.T) {
	rec := record(t, 25)
	if len(rec.Digests) != 25 {
		t.Fatalf("recorded %d digests, want 25", len(rec.Digests))
	}
	for _, threads := range []int{1, 4, 8} {
		step, err := Verify(rec, threads)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if step != -1 {
			t.Fatalf("threads=%d: diverged at step %d", threads, step)
		}
	}
}

// TestVerifyReleasesWorkers: a multi-threaded Verify stops the worker
// pool it started, so every call leaves the goroutine count where it
// found it. The workers leave after their wake channel closes, so the
// count is polled for a while rather than read once.
func TestVerifyReleasesWorkers(t *testing.T) {
	rec := record(t, 5)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if step, err := Verify(rec, 4); err != nil || step != -1 {
			t.Fatalf("Verify: step=%d err=%v", step, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after three Verify calls at 4 threads, %d before", n, before)
	}
}

// TestVerifyDetectsDivergence: corrupting one recorded digest must make
// Verify report exactly that step.
func TestVerifyDetectsDivergence(t *testing.T) {
	rec := record(t, 20)
	rec.Digests[7] ^= 0xdeadbeef
	step, err := Verify(rec, 1)
	if err == nil {
		t.Fatal("verify accepted a diverging recording")
	}
	if step != 7 {
		t.Fatalf("divergence reported at step %d, want 7", step)
	}
}

// TestRecordingFileRoundTrip: encode → file → decode reproduces the
// recording, and corrupt files are rejected.
func TestRecordingFileRoundTrip(t *testing.T) {
	rec := record(t, 10)
	path := filepath.Join(t.TempDir(), "run.paxr")
	if err := rec.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Label != rec.Label || len(got.Digests) != len(rec.Digests) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	for i := range rec.Digests {
		if got.Digests[i] != rec.Digests[i] {
			t.Fatalf("digest %d changed in round trip", i)
		}
	}
	if step, err := Verify(got, 2); err != nil || step != -1 {
		t.Fatalf("loaded recording does not replay: step=%d err=%v", step, err)
	}

	data := rec.Encode()
	for _, off := range []int{0, 6, len(data) / 2, len(data) - 2} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x10
		if _, err := Decode(bad); err == nil {
			t.Errorf("corruption at byte %d not detected", off)
		}
	}
	if _, err := Decode(data[:5]); err == nil {
		t.Error("truncated recording not detected")
	}
}

// FuzzDecodeRecording feeds Decode hostile PAXR bytes, each input as it
// is and with the CRC32 trailer re-sealed over it so mutations get past
// the checksum. Decode must not panic, and a recording that decodes
// must encode back to the bytes it came from: the format has one
// encoding per value. (The snapshot a recording carries is opaque here;
// FuzzRestore in internal/phys/workload owns that decoder.)
func FuzzDecodeRecording(f *testing.F) {
	for _, name := range []string{"Breakable", "Deformable"} {
		b, ok := workload.ByName(name)
		if !ok {
			f.Fatalf("%s benchmark missing", name)
		}
		data := Record(b.Build(0.25), name+" scale=0.25", 3).Encode()
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[len(data)-64:])
	}
	f.Add((&Recording{}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		resealed := bytes.Clone(data)
		if n := len(resealed) - 4; n >= 0 {
			binary.LittleEndian.PutUint32(resealed[n:], crc32.ChecksumIEEE(resealed[:n]))
		}
		for _, in := range [][]byte{data, resealed} {
			rec, err := Decode(in)
			if err != nil {
				continue
			}
			if !bytes.Equal(rec.Encode(), in) {
				t.Fatalf("a %d-byte recording decoded and encoded back to different bytes", len(in))
			}
		}
	})
}
