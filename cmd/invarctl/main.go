// Command invarctl drives an InvarNet-X deployment against the simulated
// Hadoop testbed: train models, build the signature database, inject faults
// and diagnose them, with all offline artefacts persisted as the paper's
// XML files.
//
// Typical session:
//
//	invarctl simulate  -workload wordcount
//	invarctl train     -workload wordcount -models ./models
//	invarctl signatures -workload wordcount -models ./models
//	invarctl diagnose  -workload wordcount -models ./models -fault cpu-hog
//	invarctl faults
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/cpi"
	"invarnetx/internal/experiments"
	"invarnetx/internal/faults"
	"invarnetx/internal/server/client"
	"invarnetx/internal/signature"
	"invarnetx/internal/telemetry"
	"invarnetx/internal/workload"
)

// commands lists the subcommands in usage order.
var commands = []struct {
	name, help string
	run        func(args []string) error
}{
	{"simulate", "run one normal job and report per-node statistics", cmdSimulate},
	{"train", "train performance models and invariants; save XML to -models", cmdTrain},
	{"signatures", "build the signature database for every fault; save to -models\n" +
		"              (-stats: per-profile signature counts; with -addr, the live daemon's\n" +
		"              stored count and its scan and early-exit counters)", cmdSignatures},
	{"diagnose", "inject a fault, detect it online and infer the root cause", cmdDiagnose},
	{"audit", "report signature conflicts and per-problem separability", cmdAudit},
	{"profiles", "list per-context profiles with model/invariant/signature stats", cmdProfiles},
	{"lifecycle", "show per-profile drift-lifecycle state (generation, quarantine, shadow)", cmdLifecycle},
	{"faults", "list the injectable faults", cmdFaults},
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "-h", "--help", "help":
		usage()
		return
	}
	for _, c := range commands {
		if c.name == os.Args[1] {
			if err := c.run(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown command %q\n", os.Args[1])
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: invarctl <command> [flags]\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-11s %s\n", c.name, c.help)
	}
}

// common returns the shared flag set and accessors.
func common(fs *flag.FlagSet) (w *string, seed *int64, models *string) {
	w = fs.String("workload", "wordcount", "workload type: wordcount|sort|grep|bayes|tpcds")
	seed = fs.Int64("seed", 1, "simulation seed")
	models = fs.String("models", "./models", "model directory (XML files)")
	return
}

func runner(seed int64) *experiments.Runner {
	opts := experiments.DefaultOptions()
	opts.Seed = seed
	return experiments.NewRunner(opts)
}

// openStore restores the persisted artefacts in dir into a fresh system,
// surfacing (but not failing on) files the crash-safe loader had to skip. hint
// says what to run first when the store cannot be read.
func openStore(cfg core.Config, dir, hint string) (*core.System, error) {
	sys := core.New(cfg)
	rep, err := sys.LoadFrom(dir)
	if err != nil {
		return nil, fmt.Errorf("loading models%s: %w", hint, err)
	}
	if rep.Partial() {
		fmt.Fprintf(os.Stderr, "warning: partial model store: %s\n", rep)
	}
	return sys, nil
}

func parseWorkload(s string) (workload.Type, error) {
	t := workload.Type(s)
	if !workload.Valid(t) {
		return "", fmt.Errorf("unknown workload %q (choose from %v)", s, workload.Types())
	}
	return t, nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	w, seed, _ := common(fs)
	fs.Parse(args)
	t, err := parseWorkload(*w)
	if err != nil {
		return err
	}
	res, err := runner(*seed).Run(t, "", 0)
	if err != nil {
		return err
	}
	fmt.Printf("%s completed in %d ticks (%d simulated seconds)\n", t, res.DurationTicks, res.DurationTicks*10)
	if res.MeanQueryTicks > 0 {
		fmt.Printf("mean query latency: %.1f ticks\n", res.MeanQueryTicks)
	}
	ips := make([]string, 0, len(res.Traces))
	for ip := range res.Traces {
		ips = append(ips, ip)
	}
	sort.Strings(ips)
	for _, ip := range ips {
		p95, _ := cpi.RunStatistic(res.Traces[ip].CPI) // 0 for an empty trace
		fmt.Printf("  node %s: %d samples, 95th-pct CPI %.3f\n", ip, res.Traces[ip].Len(), p95)
	}
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	w, seed, models := common(fs)
	fs.Parse(args)
	t, err := parseWorkload(*w)
	if err != nil {
		return err
	}
	sys, runs, err := runner(*seed).TrainSystem(t)
	if err != nil {
		return err
	}
	if err := sys.SaveTo(*models); err != nil {
		return err
	}
	fmt.Printf("trained %s on %d normal runs; models saved to %s\n", t, len(runs), *models)
	// One row per trained context, in the snapshot's (workload, node) order.
	for _, ps := range sys.ProfileStats() {
		ctx := ps.Context
		set, err := sys.Invariants(ctx)
		if err != nil {
			return err
		}
		d, err := sys.Detector(ctx)
		if err != nil {
			return err
		}
		// Residual diagnostics on one training trace: a model whose
		// residuals are not white has miscalibrated thresholds.
		white := "residuals white"
		if diag, err := d.Model.Diagnose(runs[0].Traces[ctx.IP].CPI); err == nil && !diag.White {
			white = fmt.Sprintf("WARNING: residuals not white (Ljung-Box p=%.3f)", diag.PValue)
		}
		fmt.Printf("  %s: %s, threshold %.4f, %d invariants, %s\n", ctx, d.Model.Order, d.Upper, set.Len(), white)
	}
	printCacheStats(sys)
	return nil
}

func cmdSignatures(args []string) error {
	fs := flag.NewFlagSet("signatures", flag.ExitOnError)
	w, seed, models := common(fs)
	showStats := fs.Bool("stats", false,
		"report per-profile signature DB sizes instead of building")
	addr := fs.String("addr", "",
		"with -stats: query a running daemon's /v1/stats for live scan counters instead of the model store")
	fs.Parse(args)
	if *showStats {
		return signatureStats(*models, *addr)
	}
	t, err := parseWorkload(*w)
	if err != nil {
		return err
	}
	r := runner(*seed)
	sys, err := openStore(core.DefaultConfig(), *models, " (run `invarctl train` first)")
	if err != nil {
		return err
	}
	for _, kind := range experiments.FaultKindsFor(t) {
		if err := r.Label(sys, r.LabelRows("invarctl", t, kind)); err != nil {
			return err
		}
		fmt.Printf("  signature stored: %s\n", kind)
	}
	if err := sys.SaveTo(*models); err != nil {
		return err
	}
	fmt.Printf("%d signatures saved to %s\n", sys.SignatureCount(), *models)
	return nil
}

// signatureStats reports the signature retrieval state: per-profile database
// size from the model store, or — when addr is set — the live daemon's total
// and scan counters (queries only happen in a running process).
func signatureStats(models, addr string) error {
	if addr != "" {
		c := client.New(addr, nil)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("signature retrieval at %s:\n", addr)
		fmt.Printf("  %d signatures stored\n", st.Signatures)
		fmt.Printf("  scan entries considered: %d (%d early exits, %.0f%%)\n",
			st.SigScanEntries, st.SigScanEarlyExits, 100*st.SigScanEarlyExitRate)
		return nil
	}
	sys, err := openStore(core.DefaultConfig(), models, "")
	if err != nil {
		return err
	}
	shown := 0
	for _, st := range sys.ProfileStats() {
		if st.Signatures == 0 {
			continue
		}
		shown++
		fmt.Printf("  %-28s %4d signatures\n", st.Context, st.Signatures)
	}
	if shown == 0 {
		fmt.Println("no signatures in store (run `invarctl signatures` to build them)")
		return nil
	}
	fmt.Printf("%d profiles with signatures; use -addr to read a live daemon's scan counters\n", shown)
	return nil
}

func cmdDiagnose(args []string) error {
	fs := flag.NewFlagSet("diagnose", flag.ExitOnError)
	w, seed, models := common(fs)
	fault := fs.String("fault", "cpu-hog", "fault kind to inject (see `invarctl faults`)")
	idx := fs.Int("run", 0, "run index (varies the injected instance)")
	tfSpec := fs.String("telemetry-faults", "",
		"degrade the telemetry before diagnosis, e.g. drop=0.2,outage=10.0.0.3:10-40")
	fs.Parse(args)
	t, err := parseWorkload(*w)
	if err != nil {
		return err
	}
	kind := faults.Kind(*fault)
	if !faults.Valid(kind) {
		return fmt.Errorf("unknown fault %q (see `invarctl faults`)", *fault)
	}
	r := runner(*seed)
	sys, err := openStore(core.DefaultConfig(), *models, " (run `invarctl train` and `invarctl signatures` first)")
	if err != nil {
		return err
	}

	// The scenario: one injected run, observed the way the online system
	// sees it — through a lossy agent and the daemon's ingest path when
	// telemetry faults are injected.
	sc := experiments.Scenario{
		Study:    "invarctl",
		Workload: t,
		Faults:   []faults.Kind{kind},
		Index:    *idx,
		Origin:   experiments.Alert,
	}
	if *tfSpec != "" {
		fm, err := telemetry.ParseFaultSpec(*tfSpec)
		if err != nil {
			return err
		}
		sc.Telemetry = &fm
	}
	out, err := r.Observe(sys, sc)
	if err != nil {
		return err
	}
	res := out.Run
	fmt.Printf("injected %s on %s during ticks %d-%d (job took %d ticks)\n",
		kind, res.TargetIP, res.Window.Start, res.Window.End, res.DurationTicks)
	if sc.Telemetry != nil {
		fmt.Printf("telemetry: node %s — %.0f%% of samples genuine, %d entries lost\n",
			res.TargetIP, 100*out.Genuine, out.Lost)
	}
	if out.Status == experiments.Undetected {
		fmt.Println("no performance anomaly detected")
		return nil
	}
	diag := out.Diagnosis
	det, err := sys.Detector(diag.Context)
	if err != nil {
		return err
	}
	fmt.Printf("anomaly detected at tick %d (CPI drift, %d consecutive violations)\n",
		out.AlertTick, det.Consecutive)
	printCacheStats(sys)
	fmt.Printf("violation tuple: %d of %d invariants violated\n", diag.Tuple.Ones(), len(diag.Tuple))
	if diag.Coverage < 1 {
		fmt.Printf("degraded diagnosis: %d invariants unknown (coverage %.0f%%, confidence %.2f)\n",
			len(diag.Unknown), 100*diag.Coverage, diag.Confidence)
	}
	if out.Status == experiments.HintsOnly {
		fmt.Println("no similar signature found; hints (violated associations):")
		for i, h := range diag.Hints {
			if i >= 8 {
				fmt.Printf("  ... and %d more\n", len(diag.Hints)-8)
				break
			}
			fmt.Printf("  %s\n", h)
		}
		return nil
	}
	fmt.Println("ranked root causes:")
	for i, c := range diag.Causes {
		marker := " "
		if c.Problem == string(kind) {
			marker = "*"
		}
		fmt.Printf("  %d. %-10s similarity %.2f %s\n", i+1, c.Problem, c.Score, marker)
	}
	return nil
}

func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	_, _, models := common(fs)
	threshold := fs.Float64("threshold", 0.6, "conflict similarity threshold")
	fs.Parse(args)
	sys, err := openStore(core.DefaultConfig(), *models, "")
	if err != nil {
		return err
	}
	// Each context's signature base is audited on its own: signatures of
	// two contexts never compete at diagnosis, so they never conflict.
	profiles := sys.Profiles()
	bases := make([]*signature.DB, len(profiles))
	total := 0
	var conflicts []signature.Conflict
	for i, p := range profiles {
		bases[i] = p.SignatureSnapshot()
		total += bases[i].Len()
		conflicts = append(conflicts, bases[i].Conflicts(*threshold)...)
	}
	fmt.Printf("auditing %d signatures\n", total)
	if len(conflicts) == 0 {
		fmt.Printf("no conflicts at similarity >= %.2f\n", *threshold)
	} else {
		fmt.Println("signature conflicts (likely mutual misdiagnosis):")
		for _, c := range conflicts {
			fmt.Printf("  %s\n", c)
		}
	}
	fmt.Println("per-problem separability (cohesion - worst external; negative predicts misdiagnosis):")
	for _, db := range bases {
		for _, sep := range db.Separabilities() {
			worst := fmt.Sprintf("worst external %.2f vs %s", sep.WorstExternal, sep.WorstProblem)
			if sep.WorstProblem == "" {
				worst = "no comparable problem"
			}
			fmt.Printf("  %-10s margin %+0.2f (cohesion %.2f, %s) [%s@%s]\n",
				sep.Problem, sep.Margin(), sep.Cohesion, worst, sep.Workload, sep.IP)
		}
	}
	return nil
}

func cmdProfiles(args []string) error {
	fs := flag.NewFlagSet("profiles", flag.ExitOnError)
	_, _, models := common(fs)
	fs.Parse(args)
	sys, err := openStore(core.DefaultConfig(), *models, "")
	if err != nil {
		return err
	}
	// One snapshot, already sorted by (workload, node).
	rows := sys.ProfileStats()
	if len(rows) == 0 {
		fmt.Println("no profiles in store")
		return nil
	}
	fmt.Printf("%d profiles:\n", len(rows))
	for _, st := range rows {
		model := "-"
		if st.HasModel {
			model = "arima"
		}
		fmt.Printf("  %-28s model %-5s  %3d invariants  %3d signatures\n",
			st.Context, model, st.Invariants, st.Signatures)
	}
	return nil
}

// cmdLifecycle lists the drift-lifecycle state persisted next to each
// profile's invariants: live generation, edge health, quarantined edges and
// shadow-candidate progress, plus the promotion/rollback history.
func cmdLifecycle(args []string) error {
	fs := flag.NewFlagSet("lifecycle", flag.ExitOnError)
	_, _, models := common(fs)
	edges := fs.Bool("edges", false, "also list per-edge health series")
	fs.Parse(args)
	cfg := core.DefaultConfig()
	cfg.Lifecycle = true // the store's lifecycle sections are inert otherwise
	sys, err := openStore(cfg, *models, "")
	if err != nil {
		return err
	}
	shown := 0
	for _, ps := range sys.ProfileStats() {
		st := ps.Lifecycle
		if st.Edges == 0 {
			continue
		}
		shown++
		fmt.Printf("%-28s gen %-3d  %3d edges (%d quarantined)  shadow age %-3d  observed %-6d  promoted %d / rolled back %d\n",
			ps.Context, st.Generation, st.Edges, st.Quarantined, st.ShadowAge,
			st.Observed, st.Promotions, st.Rollbacks)
		if !*edges {
			continue
		}
		for _, e := range sys.Profile(ps.Context).LifecycleEdges() {
			fmt.Printf("    m%d-m%d  %-11s  %d/%d violations  rate %.3f\n",
				e.I, e.J, e.State, e.Viol, e.Obs, e.Rate)
		}
	}
	if shown == 0 {
		fmt.Println("no lifecycle state in store (train and serve with the lifecycle enabled first)")
	}
	return nil
}

func cmdFaults([]string) error {
	fmt.Println("operational-environment faults:")
	for _, k := range faults.EnvironmentKinds() {
		fmt.Printf("  %-10s %s\n", k, faults.Description(k))
	}
	fmt.Println("software-bug faults:")
	for _, k := range faults.BugKinds() {
		fmt.Printf("  %-10s %s\n", k, faults.Description(k))
	}
	fmt.Println("cross-node faults (spatio-temporal layer; see `experiments -run crossnode`):")
	for _, k := range faults.CrossKinds() {
		fmt.Printf("  %-10s %s\n", k, faults.Description(k))
	}
	return nil
}

// printCacheStats surfaces the report-cache counters so operators can see
// how much MIC recomputation diagnosis avoided, and — after training in this
// process — how many pair-window scores training ran or skipped once a
// pair's range reached τ (each line silent when it has nothing to report).
func printCacheStats(sys *core.System) {
	var total core.ProfileStats
	for _, ps := range sys.ProfileStats() {
		total.Add(ps)
	}
	if st := total.Cache; st.Hits+st.Misses > 0 {
		fmt.Printf("assoc cache: %d hits / %d misses (%d entries)\n", st.Hits, st.Misses, st.Entries)
	}
	if tr := total.Training; tr.Scored+tr.Skipped > 0 {
		fmt.Printf("training: scored %d, skipped %d pair-window scores\n", tr.Scored, tr.Skipped)
	}
}
