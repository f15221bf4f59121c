// Command gmpbench is the simulator's benchmark. One process measures one
// workload, calling gmp.Run one session at a time (a closed loop with a
// single caller, on one P), scales its host times to the reference host
// with a calibration kernel run between sessions (calibrate.go), and
// prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 61, "failed": 0, "metrics": {"run_s": {"value": 1.31, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 they are the per-layer ones, including a
// CPU-profiled round attributed to the internal/ modules. -repeat-check
// runs every workload twice, back to back, and compares the two sets.
// See README.md for the workloads and the metric definitions.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Minimum sample counts for the medians that are not budget-driven.
const (
	minSetupSamples = 21
	minBuildSamples = 11
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gmpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to measure: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; it picks the simulation seeds of the workload's panel")
	seconds := fs.Int("seconds", 20, "wall seconds of measurement per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	outDir := fs.String("out-dir", ".bench_build", "directory that receives the CPU profiles")
	repeat := fs.Bool("repeat-check", false, "measure every workload twice, back to back, and compare the two sets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "gmpbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if *repeat {
		if err := repeatCheck(stdout, stderr, *seed, *seconds, *outDir); err != nil {
			fmt.Fprintln(stderr, "gmpbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "gmpbench:", err)
		return 2
	}
	// The simulator is single-threaded. With one P the garbage collector
	// works on the same thread as the simulation, so a timing neither
	// gains from a second core nor waits on one the host has descheduled
	// (every stop-the-world phase waits for all Ps).
	runtime.GOMAXPROCS(1)
	rep, err := runWorkload(w, options{
		seed:         *seed,
		budget:       time.Duration(*seconds) * time.Second,
		trace:        *trace == 1,
		setupSamples: minSetupSamples,
		buildSamples: minBuildSamples,
		outDir:       *outDir,
		log:          stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "gmpbench:", err)
		if rep.failed == 0 {
			return 1
		}
		// Failed calls cut the run short: report them as an incorrect
		// result rather than as a harness error.
	}
	specs := endToEndSpecs
	if *trace == 1 {
		specs = perLayerSpecs()
	}
	line, err := resultLine(rep, specs)
	if err != nil {
		fmt.Fprintln(stderr, "gmpbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the report as the result line. Every spec must have
// a finite value, unless calls failed: then the result is incorrect and
// what could not be measured reads 0.
func resultLine(rep report, specs []metricSpec) (string, error) {
	out := resultJSON{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := rep.metrics[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if out.Correct {
				return "", fmt.Errorf("metric %s missing or not finite (%v)", s.Name, v)
			}
			v = 0
		}
		out.Metrics[s.Name] = metricValue{v, s.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// repeatCheck measures every workload twice, back to back, each time in
// its own process with tracing off and then on, and prints for every
// workload and end-to-end metric both values, their relative difference
// and the bound ("exact" for a deterministic metric), then every exact
// per-layer value that differs. It returns an error unless every timing
// stayed within its bound, every exact value repeated bit for bit and no
// call failed.
func repeatCheck(stdout, stderr io.Writer, seed int64, seconds int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var sets [2]map[string][2]resultJSON // workload -> {trace 0, trace 1}
	for i := range sets {
		sets[i] = map[string][2]resultJSON{}
		for _, w := range workloads {
			var pair [2]resultJSON
			for trace := range pair {
				fmt.Fprintf(stderr, "set %d: %s, trace %d\n", i+1, w.name, trace)
				pair[trace], err = runChild(self, stderr, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out-dir", outDir)
				if err != nil {
					return fmt.Errorf("set %d, %s, trace %d: %w", i+1, w.name, trace, err)
				}
			}
			sets[i][w.name] = pair
		}
	}

	ok := true
	fmt.Fprintf(stdout, "%-16s %-13s %14s %14s %9s %6s\n", "workload", "metric", "set 1", "set 2", "rel diff", "bound")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		for _, s := range endToEndSpecs {
			x, y := a[0].Metrics[s.Name].Value, b[0].Metrics[s.Name].Value
			diff := (y - x) / x
			worse := diff
			if s.Better == "higher" {
				worse = -diff
			}
			verdict, bound := "ok", fmt.Sprintf("%5.0f%%", 100*s.Bound)
			switch {
			case s.exact:
				bound = "exact"
				if x != y {
					verdict, ok = "DIFFERS", false
				}
			case worse > s.Bound:
				verdict, ok = "WORSE", false
			}
			fmt.Fprintf(stdout, "%-16s %-13s %14.6g %14.6g %+8.2f%% %6s %s\n",
				w.name, s.Name, x, y, 100*diff, bound, verdict)
		}
		for t := range a {
			if a[t].Failed+b[t].Failed > 0 || !a[t].Correct || !b[t].Correct {
				fmt.Fprintf(stdout, "%-16s trace %d: %d and %d failed calls\n", w.name, t, a[t].Failed, b[t].Failed)
				ok = false
			}
		}
		for _, s := range perLayerSpecs() {
			if !s.exact {
				continue
			}
			if x, y := a[1].Metrics[s.Name].Value, b[1].Metrics[s.Name].Value; x != y {
				fmt.Fprintf(stdout, "%-16s %s differs: %v then %v\n", w.name, s.Name, x, y)
				ok = false
			}
		}
	}
	if !ok {
		return errors.New("the two sets disagree beyond the bounds above")
	}
	fmt.Fprintln(stdout, "every metric within its bound, every exact count repeated")
	return nil
}

// runChild runs the benchmark binary with args, passing its standard
// error through, and parses its result line.
func runChild(self string, stderr io.Writer, args ...string) (resultJSON, error) {
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return resultJSON{}, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
	}
	var res resultJSON
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("parsing result line %q: %w", last, err)
	}
	if res.Metrics == nil {
		return res, errors.New("result line has no metrics")
	}
	return res, nil
}
