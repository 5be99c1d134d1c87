package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a 2-vCPU virtual machine on a shared
// machine, and its speed drifts over minutes in two ways (README: "Timings
// on a drifting host"): its processors compute more slowly, which moves
// CPU time and wall time alike, and its processors are withheld — the
// hypervisor's steal time, 15-30% of all processor time in bad phases —
// which moves wall time only. hostProbe measures both while a run is
// measured. A child process runs a fixed, benchmark-owned computation
// every probePeriod and reports its wall time and its thread's CPU time.
// CPU-time metrics are reported scaled by probeRefMS / mean probe CPU
// time, wall-time metrics by probeRefMS / mean probe wall time: as they
// would read on a host where the probe takes probeRefMS. The probe is a
// process of its own so that it never waits behind the workload for one
// of the workload's Go processors, only for the machine's, and its code
// is independent of the repository's, so no change to the program under
// test moves it. The probe thread runs at the highest priority (nice
// -20) where the process may raise it: at normal priority the workload's
// own threads preempted it, and its wall time read up to 30% slower beside
// repair_cold (1.3 busy processors) than beside serve_mixed (0.4), so the
// workload's own load leaked into the factor that scales it.
const (
	probePeriod = 200 * time.Millisecond
	probeRefMS  = 3.0 // the probe's CPU time on the 2-vCPU reference host, fast phase
	// probeChildEnv marks the benchmark binary's own re-execution as the
	// probe process.
	probeChildEnv = "HGBENCH_PROBE_CHILD"
)

// speed is the host's speed relative to the reference host: cpu scales
// CPU-time measurements, wall scales wall-clock ones. Both are below 1 on
// a host slower than the reference.
type speed struct{ cpu, wall float64 }

type hostProbe struct {
	cmd   *exec.Cmd
	stdin io.Closer
	done  chan struct{} // closed when the child's output is drained

	// wallMS, cpuMS and priority are written by the reader goroutine
	// until done.
	wallMS, cpuMS []float64
	priority      string

	once sync.Once
	sp   speed
	err  error
}

// startProbe starts the probe process; stop ends it.
func startProbe() (*hostProbe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), probeChildEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start probe: %w", err)
	}
	p := &hostProbe{cmd: cmd, stdin: stdin, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if pr, ok := strings.CutPrefix(sc.Text(), "priority "); ok {
				p.priority = pr
				continue
			}
			var w, c float64
			if _, err := fmt.Sscan(sc.Text(), &w, &c); err == nil {
				p.wallMS = append(p.wallMS, w)
				p.cpuMS = append(p.cpuMS, c)
			}
		}
	}()
	return p, nil
}

// stop ends the probe process, waits for it, and returns the speed it
// measured. Later calls return the same result; a nil probe reads as the
// reference host.
func (p *hostProbe) stop() (speed, error) {
	if p == nil {
		return speed{1, 1}, nil
	}
	p.once.Do(func() {
		p.stdin.Close() // the child exits when its input ends
		<-p.done
		if err := p.cmd.Wait(); err != nil {
			p.err = fmt.Errorf("probe process: %w", err)
			return
		}
		if len(p.cpuMS) == 0 {
			p.err = fmt.Errorf("probe process reported no samples")
			return
		}
		p.sp = speed{cpu: probeRefMS / mean(p.cpuMS), wall: probeRefMS / mean(p.wallMS)}
	})
	return p.sp, p.err
}

func (p *hostProbe) describe() string {
	if p == nil {
		return "host speed not probed"
	}
	return fmt.Sprintf("host speed cpu %.3f wall %.3f (%d probes, mean cpu %.3f ms wall %.3f ms, reference %.1f ms, probe priority %s)",
		p.sp.cpu, p.sp.wall, len(p.cpuMS), mean(p.cpuMS), mean(p.wallMS), probeRefMS, p.priority)
}

// runProbeChild is the probe process: it prints its priority, then one
// "wall_ms cpu_ms" line per sample until its standard input ends.
func runProbeChild() {
	runtime.LockOSThread()
	// On Linux the nice value belongs to the thread: this raises the
	// probe's own, locked thread.
	priority := "nice -20"
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, -20); err != nil {
		priority = fmt.Sprintf("nice 0 (raising it failed: %v)", err)
	}
	if _, err := fmt.Printf("priority %s\n", priority); err != nil {
		return
	}
	stop := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(stop)
	}()
	tick := time.NewTicker(probePeriod)
	defer tick.Stop()
	for {
		w0, c0 := time.Now(), threadCPU()
		probeWork()
		c, w := threadCPU()-c0, time.Since(w0)
		if _, err := fmt.Printf("%.4f %.4f\n", ms(w), ms(c)); err != nil {
			return
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// threadCPU is the calling thread's CPU time (Linux CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeWork is a small tree-walking interpreter evaluating a fixed loop
// nest — interface dispatch, map-held variables and slice indexing, the
// instruction mix of the program under test — so the probe slows down
// with the host the way the workloads do. It allocates nothing after the
// first call, so the probe process's own garbage collector stays idle.
func probeWork() {
	for k := range probeEnv.vars {
		probeEnv.vars[k] = 0
	}
	probeEnv.vars["acc"] = 1
	for i := range probeEnv.arr {
		probeEnv.arr[i] = int64(7 * i)
	}
	probeSink += probeProg.eval(&probeEnv)
}

var (
	probeProg = loop{"i", lit(400), []node{
		loop{"j", lit(64), []node{
			assign{"acc", bin{'+', ref("acc"), bin{'^', index{ref("j")}, ref("i")}}},
			assign{"t", bin{'*', ref("acc"), lit(3)}},
		}},
	}}
	probeEnv  = env{vars: map[string]int64{"acc": 0, "i": 0, "j": 0, "t": 0}, arr: make([]int64, 64)}
	probeSink int64
)

type env struct {
	vars map[string]int64
	arr  []int64
}

type node interface{ eval(e *env) int64 }

type (
	lit    int64
	ref    string
	index  struct{ i node }
	assign struct {
		name string
		x    node
	}
	bin struct {
		op   byte
		l, r node
	}
	loop struct {
		v    string
		n    node
		body []node
	}
)

func (l lit) eval(*env) int64     { return int64(l) }
func (r ref) eval(e *env) int64   { return e.vars[string(r)] }
func (x index) eval(e *env) int64 { return e.arr[x.i.eval(e)%int64(len(e.arr))] }

func (a assign) eval(e *env) int64 {
	v := a.x.eval(e)
	e.vars[a.name] = v
	return v
}

func (b bin) eval(e *env) int64 {
	x, y := b.l.eval(e), b.r.eval(e)
	switch b.op {
	case '+':
		return x + y
	case '*':
		return x * y
	default:
		return x ^ y
	}
}

func (l loop) eval(e *env) int64 {
	var last int64
	for i, n := int64(0), l.n.eval(e); i < n; i++ {
		e.vars[l.v] = i
		for _, s := range l.body {
			last = s.eval(e)
		}
	}
	return last
}
