package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the host block every result file carries; compare mode
// refuses to compare runs whose P differs.
type hostInfo struct {
	P         int    `json:"p"`
	NumCPU    int    `json:"numCpu"`
	GoVersion string `json:"goVersion"`
	CPUModel  string `json:"cpuModel"`
	// Cache sizes in bytes, from sysfs (0 when not exposed). LLC is the
	// largest cache cpu0 reports.
	L1dBytes int64 `json:"l1dBytes"`
	L2Bytes  int64 `json:"l2Bytes"`
	LLCBytes int64 `json:"llcBytes"`
}

// workers is P, the goroutine count used everywhere: search workers,
// cluster workers and permutation workers.
func workers() int { return min(runtime.NumCPU(), 4) }

func probeHost() hostInfo {
	h := hostInfo{P: workers(), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		size := parseCacheSize(readTrim(filepath.Join(d, "size")))
		level, kind := readTrim(filepath.Join(d, "level")), readTrim(filepath.Join(d, "type"))
		switch {
		case level == "1" && kind == "Data":
			h.L1dBytes = size
		case level == "2":
			h.L2Bytes = size
		}
		h.LLCBytes = max(h.LLCBytes, size)
	}
	return h
}

func readTrim(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(raw))
}

// parseCacheSize reads sysfs sizes such as "48K" or "260M".
func parseCacheSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
