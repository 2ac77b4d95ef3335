package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// On a shared virtual machine the hypervisor can run other guests on
// this guest's vCPUs, and the guest kernel counts the runnable time it
// lost that way as steal. Steal that hits an op and spares the yardstick
// next to it is not scaled away (see yardstick.go), so the stolen share
// of the run is recorded in the info line, and a warning names a run
// that lost more than stealWarnFrac: a slow run on a crowded host can
// be told from a slow program.

// stealWarnFrac is the stolen share above which a run is flagged.
const stealWarnFrac = 0.05

func warnSteal(frac float64) {
	if frac > stealWarnFrac {
		fmt.Fprintf(os.Stderr, "jobbench: warning: the hypervisor took %.1f%% of runnable CPU time; timings are inflated\n", 100*frac)
	}
}

// cpuTimes is the guest kernel's cumulative CPU accounting over all
// CPUs, in USER_HZ ticks: time spent running anything, and time stolen.
type cpuTimes struct {
	busy, steal uint64
}

func readCPUTimes() (cpuTimes, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	// user nice system idle iowait irq softirq steal
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return cpuTimes{}, fmt.Errorf("parsing /proc/stat: %w", err)
		}
	}
	return cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// since is the accounting between an earlier reading a and c.
func (c cpuTimes) since(a cpuTimes) cpuTimes {
	return cpuTimes{busy: c.busy - a.busy, steal: c.steal - a.steal}
}

// stolenFrac is the share of runnable CPU time the hypervisor took over
// the interval c accounts for.
func (c cpuTimes) stolenFrac() float64 {
	if c.steal+c.busy == 0 {
		return 0
	}
	return float64(c.steal) / float64(c.steal+c.busy)
}
