// Command benchjson converts `go test -bench` text output (stdin) into a
// JSON benchmark record and merges it into a baselines file under a
// label, so before/after captures of the same suite live side by side:
//
//	go test -bench ... | benchjson -label post -out BENCH_sim.json
//
// The output file maps label -> capture; an existing file keeps its
// other labels (`make bench` updates "post" while the checked-in "pre"
// baseline stays put). All reported metrics are kept generically
// (ns/op, B/op, allocs/op, and custom ones like netRed%/execRed%).
//
// With -assert the command instead compares stdin against a stored
// capture without writing anything:
//
//	go test -bench ... | benchjson -assert LABEL/NAME -factor 2.0 -out BENCH_sim.json
//
// Every fresh benchmark whose name matches NAME (substring) must have
// ns/op within factor× of the same-named entry in LABEL's capture; a
// violation exits 1. CI's bench-smoke job uses this to pin the
// RunNestPrivate/RunNestShared micro-benchmarks to the serial entries
// stored under the parallel-sim label, with a generous noise allowance.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Entry is one benchmark result line.
type Entry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Capture is one labelled run of the suite.
type Capture struct {
	Date       string  `json:"date"`
	GoVersion  string  `json:"go"`
	Note       string  `json:"note,omitempty"`
	Benchmarks []Entry `json:"benchmarks"`
}

// gomaxprocsSuffix strips the -N procs suffix go test appends to
// benchmark names, so captures from different machines compare by name.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts benchmark lines from go test output. Lines look
// like:
//
//	BenchmarkRunNest-8   3248   671959 ns/op   27.34 ns/ref   15 allocs/op
func parseBench(lines *bufio.Scanner) ([]Entry, error) {
	var out []Entry
	for lines.Scan() {
		f := strings.Fields(lines.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue // a log line that happens to start with Benchmark
		}
		e := Entry{
			Name:       gomaxprocsSuffix.ReplaceAllString(f[0], ""),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad metric value %q", f[0], f[i])
			}
			e.Metrics[f[i+1]] = v
		}
		out = append(out, e)
	}
	return out, lines.Err()
}

// assertAgainst checks fresh entries against a stored capture: every
// fresh benchmark whose name contains nameSub must exist in the capture
// and stay within factor× of its stored ns/op. Returns the number of
// comparisons made.
func assertAgainst(fresh, stored []Entry, nameSub string, factor float64) (int, error) {
	byName := map[string]Entry{}
	for _, e := range stored {
		byName[e.Name] = e
	}
	checked := 0
	for _, e := range fresh {
		if !strings.Contains(e.Name, nameSub) {
			continue
		}
		base, ok := byName[e.Name]
		if !ok {
			return checked, fmt.Errorf("%s: no stored entry to compare against", e.Name)
		}
		got, want := e.Metrics["ns/op"], base.Metrics["ns/op"]
		if want <= 0 {
			return checked, fmt.Errorf("%s: stored entry has no ns/op", e.Name)
		}
		if got > want*factor {
			return checked, fmt.Errorf("%s: %.0f ns/op exceeds %.1fx the stored %.0f ns/op",
				e.Name, got, factor, want)
		}
		checked++
	}
	if checked == 0 {
		return 0, fmt.Errorf("no fresh benchmark matched %q", nameSub)
	}
	return checked, nil
}

func main() {
	label := flag.String("label", "post", "label to store this capture under")
	outPath := flag.String("out", "BENCH_sim.json", "baselines file to merge into")
	note := flag.String("note", "", "free-form note recorded with the capture")
	assert := flag.String("assert", "", "LABEL/NAME: compare stdin against stored capture LABEL, benchmarks matching NAME (no write)")
	factor := flag.Float64("factor", 2.0, "allowed ns/op ratio for -assert")
	flag.Parse()

	entries, err := parseBench(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *assert != "" {
		lbl, sub, ok := strings.Cut(*assert, "/")
		if !ok {
			fmt.Fprintln(os.Stderr, "benchjson: -assert wants LABEL/NAME")
			os.Exit(1)
		}
		all := map[string]Capture{}
		data, err := os.ReadFile(*outPath)
		if err == nil {
			err = json.Unmarshal(data, &all)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *outPath, err)
			os.Exit(1)
		}
		cap, ok := all[lbl]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: no capture %q in %s\n", lbl, *outPath)
			os.Exit(1)
		}
		n, err := assertAgainst(entries, cap.Benchmarks, sub, *factor)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: assert:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks within %.1fx of %s[%q]\n", n, *factor, *outPath, lbl)
		return
	}

	all := map[string]Capture{}
	if data, err := os.ReadFile(*outPath); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: corrupt %s: %v\n", *outPath, err)
			os.Exit(1)
		}
	}
	all[*label] = Capture{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		Note:       *note,
		Benchmarks: entries,
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s[%q]\n", len(entries), *outPath, *label)
}
