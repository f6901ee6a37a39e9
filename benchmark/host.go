package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"genomeatscale/internal/bitutil"
)

// hostFacts records where a result was measured; every result carries them.
type hostFacts struct {
	CPUs           int    `json:"cpus"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	Kernel         string `json:"kernel"`
	GoVersion      string `json:"go_version"`
	PopcountKernel string `json:"popcount_kernel"`
	Commit         string `json:"commit"`
	LLCBytes       int64  `json:"llc_bytes"`
}

func readHost(root string) hostFacts {
	h := hostFacts{
		CPUs:           runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Kernel:         "unknown",
		GoVersion:      runtime.Version(),
		PopcountKernel: bitutil.Kernel(),
		Commit:         "unknown",
		LLCBytes:       llcBytes(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; the commit is then
	// unknown and the result says so.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// llcBytes returns the size of the largest cache sysfs lists for cpu0, or 0
// when it cannot be read.
func llcBytes() int64 {
	files, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	var best int64
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			best = max(best, v*mult)
		}
	}
	return best
}

// scalingRatioAllowed reports whether a parallel-speedup or scaling ratio
// measured with the given rank and worker counts means anything on this
// host: with more ranks or workers than CPUs the ratio measures scheduler
// time-slicing, not parallelism, and the harness refuses to print one.
func scalingRatioAllowed(ranks, workers, cpus int) (bool, string) {
	if ranks > cpus || workers > cpus {
		return false, fmt.Sprintf("no scaling ratio reported: %d ranks x %d workers on %d CPUs is oversubscribed, times and counts only",
			ranks, workers, cpus)
	}
	return true, ""
}
