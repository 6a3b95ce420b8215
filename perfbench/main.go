// Command perfbench is the repository benchmark. It runs one of four
// workloads through the public specdsm entry points (the *StudyStream
// functions with a StudyConfig, AppWorkload, CaptureTrace, EvaluateTrace,
// and NewRemoteRunner behind remote.Server shards), checks every
// simulated result against a digest, prints each metric by name with
// its unit, and ends its output with one JSON line:
//
//	{"correct": true, "attempted": 2548, "failed": 0, "metrics": {...}}
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload paper-n16 --seed 1 --seconds 10 --trace 0
//
// The seed s selects the study seeds s, s+1, ...; --seconds sizes the
// job matrix (see newSpec), so the same arguments always run the same
// jobs and every count is exact. --trace 0 reports the end-to-end
// metrics of BENCHMARK.json. --trace 1 also runs the timed phase a
// second time under a CPU and an allocation profile, with spans
// recorded, and reports the per-layer metrics; profiles and spans are
// written under .bench_out/.
//
// Host time is process CPU time, not wall time: on a shared host, other
// tenants stretched the wall time of identical runs by up to 2x, while
// the CPU time per simulation moved by about a tenth. The wall-clock
// figures are printed beside the CPU-time ones for reference.
//
// A simulation fails when it returns an error (the coherence checker
// stays on, so a violation is an error), when its rows' digest differs
// from the reference (seed 1, 10 seconds) or from the first pass's, or,
// on remote-2shard, when the dispatcher ran it in-process instead of on
// a shard or a shard's rows differ from in-process rows. The exit code is
// 0 when nothing failed, 1 when something did (the JSON line is still
// printed), and 2 when the benchmark could not run.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed and defaultSeconds are the run the reference digests
// belong to.
const (
	defaultSeed    = 1
	defaultSeconds = 10
)

// outDir, relative to the repository root, receives the traced run's
// profiles and spans and the checkpoints of small-ckpt-1w.
const outDir = ".bench_out"

// setupRepeats is how many times a run measures set-up, in fresh
// processes so that every generation starts on a cold cache; setup_s is
// their median.
const setupRepeats = 5

//go:embed reference.json
var referenceJSON []byte

func main() { os.Exit(run()) }

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	setupProbe bool
}

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "first study seed")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "run length the job matrix is scaled to")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the profiled, traced phase and reports per-layer metrics")
	flag.BoolVar(&o.setupProbe, "setup-probe", false, "only measure set-up and print its seconds (used by the benchmark itself)")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.seed < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1, --trace 0 or 1, --seed >= 1, and no arguments")
		return 2
	}
	sp, err := newSpec(o.workload, o.seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if o.setupProbe {
		cpu0 := processCPU()
		e, err := setUp(sp, o.seed, nil)
		cpu := processCPU() - cpu0
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		e.close()
		fmt.Println(strconv.FormatFloat(cpu.Seconds(), 'g', -1, 64))
		return 0
	}
	res, err := bench(sp, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints metrics as they are measured and collects the ones the
// JSON line carries.
type report struct {
	json map[string]metric
}

func (r *report) add(name string, v float64, unit string, inJSON bool, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("  %-28s %16.6f %-10s%s\n", name, v, unit, note)
	if inJSON {
		r.json[name] = metric{v, unit}
	}
}

func bench(sp spec, o options) (*result, error) {
	traced := o.trace == 1
	fmt.Printf("perfbench %s: seed %d, %d seeds x %d passes, %d workers; host %s\n",
		sp.name, o.seed, sp.seeds, sp.passes, sp.workerCount(), fingerprint())

	// Set-up: setupRepeats-1 fresh processes, then this one.
	var setups []float64
	for k := 0; k < setupRepeats-1; k++ {
		s, err := probeSetup(o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	var spans *spanLog
	if traced {
		spans = newSpanLog(time.Now())
	}
	cpu0 := processCPU()
	e, err := setUp(sp, o.seed, spans)
	if err != nil {
		return nil, err
	}
	defer e.close()
	setups = append(setups, (processCPU() - cpu0).Seconds())

	timed := runPhase(e, nil, "timed")
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	maxRSS := float64(ru.Maxrss) / 1024 // kB on Linux

	var tracedPh *phase
	var prof *layerProfile
	if traced {
		tracedPh, prof, err = profilePhase(e, spans, o)
		if err != nil {
			return nil, err
		}
	}

	// Correctness.
	correct := true
	problems := append([]string(nil), timed.problems...)
	failed := timed.failed
	attempted := timed.sims
	if tracedPh != nil {
		problems = append(problems, tracedPh.problems...)
		failed += tracedPh.failed
		attempted += tracedPh.sims
		if tracedPh.digest() != timed.digest() {
			correct = false
			problems = append(problems, fmt.Sprintf("traced phase digest %s differs from the timed phase's %s", tracedPh.digest(), timed.digest()))
		}
	}
	refNote := "no reference for this seed and run length"
	if o.seed == defaultSeed && o.seconds == defaultSeconds {
		refs := map[string]string{}
		if err := json.Unmarshal(referenceJSON, &refs); err != nil {
			return nil, fmt.Errorf("reference.json: %w", err)
		}
		switch want := refs[sp.name]; {
		case want == timed.digest():
			refNote = "matches reference"
		case want == "":
			correct = false
			refNote = "reference missing"
		default:
			correct = false
			failed += timed.sims
			refNote = "DIFFERS from reference " + want
		}
	}
	if len(e.addrs) > 0 {
		// The local == remote contract, on the first seed: the same study
		// calls in-process must produce the rows the shards produced.
		n, bad := checkLocal(e, timed.calls)
		attempted += n
		if bad > 0 {
			failed += bad
			problems = append(problems, "remote rows differ from in-process rows on the first seed")
		}
	}

	// Fidelity: paper-n16's own first pass, or the paper configuration
	// at the run's seed for the other workloads.
	fid := timed
	fidNote := fmt.Sprintf("seeds %d-%d", o.seed, o.seed+int64(sp.seeds)-1)
	if sp.name != "paper-n16" {
		fid = fidelityProbe(o.seed)
		attempted += fid.sims
		failed += fid.failed
		problems = append(problems, fid.problems...)
		fidNote = fmt.Sprintf("paper configuration, seed %d", o.seed)
	}

	sort.Float64s(setups)
	r := &report{json: map[string]metric{}}
	fmt.Printf("end-to-end (timed phase %.3f s, %d simulations, %d job samples):\n", timed.wall.Seconds(), timed.sims, len(timed.jobMS))
	r.add("setup_s", setups[len(setups)/2], "s", !traced,
		fmt.Sprintf("CPU time, median of %d cold set-ups: %s", len(setups), fmtList(setups)))
	r.add("sims_per_s", percentile(timed.cpuSimRates, 0.5), "1/cpu-s", !traced,
		fmt.Sprintf("per CPU-second, median of %d passes: %s", len(timed.cpuSimRates), fmtList(timed.cpuSimRates)))
	r.add("sim_mev_per_s", percentile(timed.cpuEventRates, 0.5)/1e6, "Mevents/cpu-s", !traced, "per CPU-second, median of passes")
	r.add("job_p50_ms", jobPercentile(timed.jobCPUMS, 0.5), "ms", !traced, fmt.Sprintf("CPU-time estimate, %d samples, mean over ranks within 5%%", len(timed.jobCPUMS)))
	r.add("job_p90_ms", jobPercentile(timed.jobCPUMS, 0.9), "ms", !traced, fmt.Sprintf("CPU-time estimate, %d samples, mean over ranks within 5%%", len(timed.jobCPUMS)))
	r.add("wall.sims_per_s", percentile(timed.simRates, 0.5), "1/s", false,
		fmt.Sprintf("%d workers, median of passes: %s", sp.workerCount(), fmtList(timed.simRates)))
	r.add("wall.job_p50_ms", jobPercentile(timed.jobMS, 0.5), "ms", false, "")
	r.add("wall.job_p90_ms", jobPercentile(timed.jobMS, 0.9), "ms", false, "")
	r.add("alloc_mb", float64(timed.allocBytes)/1e6, "MB", !traced, "")
	r.add("max_rss_mb", maxRSS, "MB", !traced, "")
	r.add("failed_frac", float64(failed)/float64(attempted), "ratio", false, fmt.Sprintf("%d of %d; reported as failed/attempted", failed, attempted))
	r.add("fr_exec_pct", mean(fid.fig9FR), "%", !traced, "simulated, "+fidNote+", paper 92")
	r.add("swi_exec_pct", mean(fid.fig9SWI), "%", !traced, "simulated, "+fidNote+", paper 88")
	r.add("vmsp_acc_pct", mean(fid.vmspAcc), "%", !traced, "simulated, "+fidNote+", unvalidated: no paper figure in the repo")
	fmt.Printf("digest %s: %s\n", timed.digest(), refNote)

	if traced {
		perLayer(r, e, timed, tracedPh, prof)
		if err := spans.write(filepath.Join(outDir, fmt.Sprintf("%s-s%d.spans.jsonl", sp.name, o.seed))); err != nil {
			return nil, err
		}
	}
	for _, p := range problems {
		fmt.Println("FAILED:", p)
	}
	if failed > 0 {
		correct = false
	}
	return &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: r.json}, nil
}

// probeSetup measures set-up once in a fresh process.
func probeSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--setup-probe", "--workload", o.workload,
		"--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// checkLocal reruns the first seed's study calls in-process on one
// worker and compares their digests with the remote ones. It returns
// the simulations it ran and how many of them disagreed.
func checkLocal(e *env, remoteCalls []string) (sims, bad int) {
	local := *e
	local.addrs = nil
	local.sp.shards = 0
	local.sp.seeds = 1
	local.sp.passes = 1
	local.sp.workers = 1
	ph := runPhase(&local, nil, "local")
	for i, d := range ph.calls {
		if i >= len(remoteCalls) || d != remoteCalls[i] {
			bad += local.sp.jobsPerCall(local.sp.studies()[i])
		}
	}
	return ph.sims, bad + ph.failed
}

// fidelityProbe runs the paper configuration (7 applications, 16
// nodes, scale 1.0) at one seed, untimed.
func fidelityProbe(seed int64) *phase {
	sp := spec{name: "fidelity", scale: 1, nodes: []int{16}, seeds: 1, passes: 1}
	return runPhase(&env{sp: sp, seed: seed, ledger: newLedger()}, nil, "fidelity")
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

// fingerprint describes the host and the code under test, so that
// results from different machines are recognisable as such.
func fingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s source=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), sourceDigest("."))
}

// sourceDigest identifies the code under test without version control:
// a hash over go.mod and every .go file of the module rooted at root,
// outside the benchmark's own directory and build output.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}
