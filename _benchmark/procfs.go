package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture this benchmark targets.
const clockTicks = 100

// parseStatCPU returns utime+stime, in seconds, from the contents of a
// /proc/<pid>/stat file. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("procfs: stat has no command field")
	}
	// After ')' come fields 3 (state), 4, ...; utime and stime are 14, 15.
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: stat has %d fields after the command, want >= 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stime: %w", err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// parseStatusMB returns a kB field of a /proc/<pid>/status file, such as
// VmHWM (peak resident set size) or VmRSS (resident set size now), in MiB.
func parseStatusMB(status, field string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, field+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("procfs: malformed %s line %q", field, line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: %s: %w", field, err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("procfs: status has no %s line", field)
}

// cpuSeconds reads a live process's CPU time.
func cpuSeconds(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// peakRSSMB reads a live process's peak RSS.
func peakRSSMB(pid string) (float64, error) { return statusMB(pid, "VmHWM") }

// rssMB reads a live process's RSS now.
func rssMB(pid string) (float64, error) { return statusMB(pid, "VmRSS") }

func statusMB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseStatusMB(string(b), field)
}

// parseStatSteal returns the machine's total and steal CPU ticks from the
// contents of /proc/stat: the aggregate "cpu" line, whose eighth value is
// the time the hypervisor ran something else while a vCPU wanted to run.
func parseStatSteal(stat string) (total, steal uint64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("procfs: /proc/stat does not start with an aggregate cpu line")
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("procfs: /proc/stat cpu field %d: %w", i+1, err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// machineTicks reads the machine's total and steal CPU ticks.
func machineTicks() (total, steal uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseStatSteal(string(b))
}
