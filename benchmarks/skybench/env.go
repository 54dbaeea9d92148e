package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// environment is the record of where a set of results was measured, so a
// reader can tell two boxes, builds or commits apart.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"` // short-range kernel linked: sse2-asm or portable
	GitCommit  string `json:"git_commit"`
}

func readEnvironment() environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		Kernel:     kernelImpl,
		GitCommit:  gitCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is empty-safe: the driver's checkout is not a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// calibrate times a fixed amount of register-only work (about half a second
// on the reference box; the ISSUE's full second per side is more than the
// driver's budget spares). It runs before and after each workload: when the
// two differ by more than 10%, the box's speed changed during the run —
// another tenant, a frequency step — and the run is marked noisy.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 200_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(t0).Seconds()
}
