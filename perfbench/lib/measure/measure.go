// Package measure reads the costs the benchmark reports — process CPU
// time, peak resident set, host steal — and prints the result line.
package measure

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// SelfCPU returns this process's user+system CPU time.
func SelfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ProcCPU returns the user+system CPU time of a running process.
func ProcCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("measure: unparsable /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// utime and stime are fields 14 and 15 of stat(5); f[0] is field 3.
	if len(f) < 13 {
		return 0, fmt.Errorf("measure: short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("measure: bad cpu times in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// PeakRSSMB returns a running process's peak resident set (VmHWM) in MB.
func PeakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("measure: bad VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("measure: no VmHWM for pid %d", pid)
}

// HostCPU is one reading of the host's aggregate CPU counters.
type HostCPU struct{ Total, Steal uint64 }

// ReadHostCPU reads the aggregate "cpu" line of /proc/stat.
func ReadHostCPU() HostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return HostCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var h HostCPU
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already inside user.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		h.Total += v
		if i == 8 {
			h.Steal = v
		}
	}
	return h
}

// StealShare is the share of host CPU time stolen by the hypervisor
// between two readings.
func StealShare(a, b HostCPU) float64 {
	if b.Total <= a.Total {
		return 0
	}
	return float64(b.Steal-a.Steal) / float64(b.Total-a.Total)
}

// PinToOneCPU restricts every thread of this process, and so every
// process it starts afterwards, to the highest-numbered CPU it may run
// on, and returns that CPU.
func PinToOneCPU() (int, error) {
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return -1, fmt.Errorf("measure: sched_getaffinity: %w", e)
	}
	cpu := -1
	for i := len(mask)*64 - 1; i >= 0 && cpu < 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return -1, fmt.Errorf("measure: empty CPU affinity mask")
	}
	var one [16]uint64
	one[cpu/64] = 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return -1, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 && e != syscall.ESRCH {
			return -1, fmt.Errorf("measure: sched_setaffinity: %w", e)
		}
	}
	return cpu, nil
}

// Noise is the record of run conditions printed beside every result.
type Noise struct {
	StealPct   float64 `json:"steal_pct"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        int     `json:"cpu"`
}

// NoiseSince builds the noise record for a run pinned to cpu that
// started at start.
func NoiseSince(start HostCPU, cpu int) Noise {
	return Noise{
		StealPct:   100 * StealShare(start, ReadHostCPU()),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpu,
	}
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Print writes the noise line and then the result as the last line.
func Print(w io.Writer, n Noise, r Result) error {
	nb, err := json.Marshal(n)
	if err != nil {
		return err
	}
	rb, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "noise %s\n%s\n", nb, rb)
	return err
}

// Median returns the median of xs (0 when empty).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// latency samples.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
