package kernels

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"github.com/parallax-arch/parallax/internal/arch/cpu"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

func TestStaticSizes(t *testing.T) {
	if Narrow.StaticSize() != 277 || Island.StaticSize() != 177 || Cloth.StaticSize() != 221 {
		t.Error("static sizes must match the paper: 277/177/221")
	}
	if AllKernelsBytes32 != 2700 {
		t.Errorf("combined 32-bit instruction footprint = %d B, want 2700 (2.7KB)", AllKernelsBytes32)
	}
}

func TestTraceLengthAndPCs(t *testing.T) {
	for k := range NumKernels {
		tr := k.Trace(10, 1)
		if len(tr) != 10*k.StaticSize() {
			t.Errorf("%v: trace length %d, want %d", k, len(tr), 10*k.StaticSize())
		}
		// PCs repeat each iteration (static code resident in local mem).
		pcs := map[uint32]bool{}
		for _, ins := range tr {
			pcs[ins.PC] = true
		}
		if len(pcs) != k.StaticSize() {
			t.Errorf("%v: %d unique PCs, want %d", k, len(pcs), k.StaticSize())
		}
	}
}

// TestIPCTraceIdentity pins each kernel's IPC trace (its body seed, PC
// base and trace seed), so renumbering the phases cannot move a trace —
// and with it every modeled IPC — unnoticed.
func TestIPCTraceIdentity(t *testing.T) {
	want := [NumKernels]uint32{
		Broad:     2103456346,
		Narrow:    3842211094,
		IslandGen: 3277572031,
		Island:    4286317771,
		Cloth:     3376394792,
	}
	for k := range NumKernels {
		var b []byte
		for _, ins := range k.IPCTrace() {
			b = append(b, byte(ins.Op))
			b = binary.LittleEndian.AppendUint32(b, ins.PC)
			b = binary.LittleEndian.AppendUint16(b, ins.Src1)
			b = binary.LittleEndian.AppendUint16(b, ins.Src2)
			taken := byte(0)
			if ins.Taken {
				taken = 1
			}
			b = append(b, taken)
		}
		if got := crc32.ChecksumIEEE(b); got != want[k] {
			t.Errorf("%v: IPC trace CRC-32 %d, want %d", k, got, want[k])
		}
	}
}

func TestTraceDeterministic(t *testing.T) {
	a := Narrow.Trace(20, 42)
	b := Narrow.Trace(20, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace generation is not deterministic")
		}
	}
}

func TestMixesMatchCharacterization(t *testing.T) {
	// Fig 9b: int ops and reads are the top two classes for all three;
	// Narrowphase has ~8% branches and little FP; Island and Cloth are
	// FP-heavy (~30% adds+muls); Cloth uses div/sqrt, Island does not.
	nm := Summary(Narrow.Mix())
	im := Summary(Island.Mix())
	cm := Summary(Cloth.Mix())

	if fp := nm.FPAdd + nm.FPMul; fp > 0.15 {
		t.Errorf("Narrowphase FP fraction = %v, want small", fp)
	}
	if nm.IntALU < 0.25 || nm.Read < 0.15 {
		t.Errorf("Narrowphase should be int/read dominant: %+v", nm)
	}
	if fp := im.FPAdd + im.FPMul; fp < 0.25 || fp > 0.45 {
		t.Errorf("Island FP fraction = %v, want ~0.32", fp)
	}
	if fp := cm.FPAdd + cm.FPMul; fp < 0.20 || fp > 0.40 {
		t.Errorf("Cloth FP fraction = %v, want ~0.28", fp)
	}
	hasSqrt := Cloth.Mix()[cpu.FPSqrt] > 0
	if !hasSqrt {
		t.Error("Cloth must use sqrt")
	}
	if Island.Mix()[cpu.FPSqrt] > 0 || Island.Mix()[cpu.FPDiv] > 0 {
		t.Error("Island kernel should not use div/sqrt")
	}
}

func TestKernelIPCOrdering(t *testing.T) {
	// Fig 10a's shape:
	//  - Island and Cloth IPC drop drastically from desktop to console
	//    (bursty ILP needs window capacity);
	//  - the limit core extracts >4 IPC from Island and ~1.5 from Cloth;
	//  - Narrowphase does NOT improve on the limit core (branch bound).
	ipc := func(cfg cpu.Config, k Kernel) float64 {
		return cpu.New(cfg).Run(k.Trace(400, 3)).IPC()
	}
	iDesk, iCons := ipc(cpu.Desktop, Island), ipc(cpu.Console, Island)
	if iDesk < iCons*1.3 {
		t.Errorf("Island IPC should drop desktop->console: %v vs %v", iDesk, iCons)
	}
	cDesk, cCons := ipc(cpu.Desktop, Cloth), ipc(cpu.Console, Cloth)
	if cDesk < cCons*1.2 {
		t.Errorf("Cloth IPC should drop desktop->console: %v vs %v", cDesk, cCons)
	}
	if iLim := ipc(cpu.Limit, Island); iLim < 3.5 {
		t.Errorf("limit-core Island IPC = %v, want > ~4", iLim)
	}
	nDesk, nLim := ipc(cpu.Desktop, Narrow), ipc(cpu.Limit, Narrow)
	if nLim > nDesk*1.25 {
		t.Errorf("Narrowphase should not scale to the limit core: %v vs %v", nLim, nDesk)
	}
	// All shader IPCs are below desktop.
	for _, k := range FG {
		if s, d := ipc(cpu.Shader, k), ipc(cpu.Desktop, k); s >= d {
			t.Errorf("%v: shader IPC %v >= desktop %v", k, s, d)
		}
	}
}

func TestPerfectBPHelpsNarrowphase(t *testing.T) {
	// Paper: ideal branch prediction improved Narrowphase by ~30%.
	tr := Narrow.Trace(400, 3)
	real := cpu.New(cpu.Desktop).Run(tr).IPC()
	ideal := cpu.New(cpu.Desktop)
	ideal.PerfectBP = true
	iIPC := ideal.Run(tr).IPC()
	gain := iIPC / real
	if gain < 1.10 || gain > 1.9 {
		t.Errorf("ideal BP gain on Narrowphase = %vx, want roughly 1.3x", gain)
	}
}

func TestDataFootprints(t *testing.T) {
	if Narrow.DataIn() != 1668 || Island.DataIn() != 604 || Cloth.DataIn() != 376 {
		t.Error("data-in footprints must match the paper")
	}
	if Narrow.DataOut() != 100 || Island.DataOut() != 128 || Cloth.DataOut() != 308 {
		t.Error("data-out footprints must match the paper")
	}
}

func TestInstrCountsFromProfile(t *testing.T) {
	// A small real scene provides profiles with the right proportions:
	// a cloth-free scene has zero cloth instructions, etc.
	w := world.New()
	w.AddStatic(geom.Plane{Normal: m3.V(0, 1, 0)}, m3.Zero, m3.QIdent)
	for i := 0; i < 10; i++ {
		w.AddBody(geom.Sphere{R: 0.5}, 1, m3.V(float64(i)*0.9, 0.45, 0), m3.QIdent, 0, 0)
	}
	w.Step()
	p := DefaultCost.InstrCounts(&w.Profile)
	if p[Cloth] != 0 {
		t.Errorf("cloth instructions in cloth-free scene: %v", p[Cloth])
	}
	for _, k := range []Kernel{Broad, Narrow, IslandGen, Island} {
		if p[k] <= 0 {
			t.Errorf("phase %v has no instructions", k)
		}
	}
	if p.Total() < p.Serial() {
		t.Error("totals inconsistent")
	}
}

func TestFGShare(t *testing.T) {
	for k := range NumKernels {
		if k.Serial() {
			if s := k.FGShare(); s != 0 {
				t.Errorf("serial phase %v farms %v to FG cores", k, s)
			}
		} else if s := k.FGShare(); s <= 0.5 || s > 1 {
			t.Errorf("phase %v FG share = %v", k, s)
		}
	}
	if !slices.Equal(FG[:], []Kernel{Narrow, Island, Cloth}) {
		t.Errorf("FG = %v, want the three parallel phases in model order", FG)
	}
}
