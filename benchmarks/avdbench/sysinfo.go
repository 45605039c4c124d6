package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// envInfo is recorded in every result file, so two results can be told
// apart by the machine state they were taken in.
type envInfo struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
	// HWMRestarts says what peak_rss_mb covers: true, the run from its
	// first timed op; false (the kernel refuses /proc/self/clear_refs),
	// the whole process, set-up included. -compare refuses to mix them.
	HWMRestarts bool `json:"vmhwm_restarts"`
}

func readEnv() envInfo {
	e := envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		LoadAvg1:   -1,
	}
	if f, err := os.OpenFile(clearRefs, os.O_WRONLY, 0); err == nil {
		f.Close()
		e.HWMRestarts = true
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				e.LoadAvg1 = v
			}
		}
	}
	return e
}

const clearRefs = "/proc/self/clear_refs"

// restartHWM restarts the kernel's high-water mark of resident memory
// from what is resident now.
func restartHWM() {
	_ = os.WriteFile(clearRefs, []byte("5"), 0) // a refusal is recorded in envInfo.HWMRestarts
}

// endSetup ends set-up for peak_rss_mb: the generator's garbage goes
// back to the OS and the high-water mark restarts. A live workload's
// set-up records every kernel once to count its events, and a recording
// session holds 263 MB where a checking one holds 38; read from process
// start, peak_rss_mb on live-* would measure the recorder, and nothing
// the checker does could move it.
func endSetup() {
	debug.FreeOSMemory()
	restartHWM()
}

// vmHWM is the process's resident-set high-water mark in MB, or NaN
// where /proc does not say.
func vmHWM() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return nan
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return nan
}
