package bench

import (
	"strings"
	"testing"
	"time"

	"hacc/internal/core"
	"hacc/internal/shortrange"
)

func TestRunFFTSmoke(t *testing.T) {
	r, err := RunFFT(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seconds <= 0 || r.N != 16 || r.Ranks != 2 {
		t.Errorf("bad result %+v", r)
	}
	var sb strings.Builder
	PrintFFTTable(&sb, []FFTResult{r})
	if !strings.Contains(sb.String(), "16^3") {
		t.Errorf("table output missing size: %q", sb.String())
	}
}

func TestRunKernelSmoke(t *testing.T) {
	r := RunKernel(128, 16, 2, 5*time.Millisecond)
	if r.InteractionsSec <= 0 {
		t.Errorf("no throughput measured: %+v", r)
	}
	var sb strings.Builder
	PrintKernelTable(&sb, []KernelResult{r})
	if !strings.Contains(sb.String(), "128") {
		t.Error("kernel table missing row")
	}
	if !strings.Contains(sb.String(), "kernel body: "+shortrange.KernelISA()) {
		t.Errorf("kernel table header does not name the body: %q", sb.String())
	}
}

func TestRunPoissonSmoke(t *testing.T) {
	r, err := RunPoisson(16, 2, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.NsPerPoint <= 0 {
		t.Errorf("bad poisson result %+v", r)
	}
}

func TestRunFullSmoke(t *testing.T) {
	r, err := RunFull(FullOptions{Ranks: 2, NpPerDim: 12, Solver: core.PPTreePM, Steps: 1, SubCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.NpTotal != 12*12*12 {
		t.Errorf("particles %d", r.NpTotal)
	}
	if r.SecPerSub <= 0 || r.NsPerSubPart <= 0 || r.Flops <= 0 {
		t.Errorf("bad metrics %+v", r)
	}
	if r.Substeps != 2 {
		t.Errorf("substeps %d want 2", r.Substeps)
	}
	var sb strings.Builder
	PrintFullTable(&sb, []FullResult{r}, r.MemMBPerRank)
	PrintPhaseSplit(&sb, r)
	if !strings.Contains(sb.String(), "kernel") {
		t.Error("phase split missing kernel row")
	}
}

func TestRunFullWithConfigHook(t *testing.T) {
	r, err := RunFullWithConfig(FullOptions{Ranks: 1, NpPerDim: 12, Solver: core.PMOnly, Steps: 1, SubCycles: 1},
		func(c *core.Config) { c.DisableFilter = true })
	if err != nil {
		t.Fatal(err)
	}
	if r.Interactions != 0 {
		t.Errorf("PMOnly counted %d interactions", r.Interactions)
	}
}

func TestRunEvolutionSmoke(t *testing.T) {
	r, err := RunEvolution(2, 12, 60, 2, 24, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.StepSec) != 2 || r.WallRatio <= 0 {
		t.Errorf("bad evolution result %+v", r)
	}
	var sb strings.Builder
	PrintEvolution(&sb, r)
	if !strings.Contains(sb.String(), "wall-clock last/first") {
		t.Error("evolution report truncated")
	}
}

func TestRunPowerEvolutionSmoke(t *testing.T) {
	r, err := RunPowerEvolution(2, 12, 80, 2, []float64{24, 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Spectra) != 2 || len(r.Linear) != 2 {
		t.Fatalf("recorded %d spectra", len(r.Spectra))
	}
	var sb strings.Builder
	PrintPowerEvolution(&sb, r)
	if !strings.Contains(sb.String(), "log10(k)") {
		t.Error("power table missing header")
	}
}

func TestRunHalosSmoke(t *testing.T) {
	r, err := RunHalos(2, 16, 60, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MassBins) == 0 || len(r.TheoryST) != len(r.MassBins) {
		t.Errorf("bad halo result %+v", r)
	}
	var sb strings.Builder
	PrintHalos(&sb, r)
	if !strings.Contains(sb.String(), "Sheth-Tormen") {
		t.Error("halo report missing theory columns")
	}
}
