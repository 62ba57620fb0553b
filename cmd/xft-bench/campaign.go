package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/xft-consensus/xft/internal/campaign"
)

// runCampaign is the `xft-bench campaign` subcommand: one adversarial
// scale campaign, fully determined by -profile and -seed. It is the
// replay half of the soak workflow — the repro line a failed nightly
// run emits invokes exactly this, so the flag names here must stay in
// sync with campaign.Config.Repro.
func runCampaign(argv []string) int {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	var (
		profile    = fs.String("profile", string(campaign.CrashStorm), "fault profile: crash-storm | rolling-partition | byzantine-mix | kitchen-sink")
		seed       = fs.Int64("seed", 1, "campaign PRNG seed; same seed => same schedule, same verdict")
		t          = fs.Int("t", 0, "fault threshold t (n = 2t+1 replicas); 0 = profile default")
		clients    = fs.Int("clients", 0, "open-loop client count; 0 = profile default")
		horizon    = fs.Duration("horizon", 0, "fault-injection horizon (virtual time); 0 = profile default")
		app        = fs.String("app", "", "replicated application: kv | zk; empty = profile default")
		injectFork = fs.Bool("inject-fork", false, "silently corrupt one replica's state machine mid-run (the checker must catch it)")
		window     = fs.Int("window", 0, "per-client pipeline window; 0 = profile default")
		quiesce    = fs.Duration("quiesce", 0, "drain period after the horizon; 0 = profile default")
		artifacts  = fs.String("artifact-dir", "", "write seed/trace/repro files into this directory")
		verbose    = fs.Bool("v", false, "print the full event trace")
	)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: xft-bench campaign [flags]\n\nRuns one randomized long-horizon fault campaign on the deterministic\nsimulator and asserts the XFT safety invariants. Exits 0 only if every\ninvariant held.\n\n")
		fs.PrintDefaults()
	}
	fs.Parse(argv)
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "campaign: unexpected arguments %v\n", fs.Args())
		return 2
	}
	prof, err := campaign.ParseProfile(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		return 2
	}
	cfg := campaign.Config{
		Profile:      prof,
		Seed:         *seed,
		T:            *t,
		Clients:      *clients,
		ClientWindow: *window,
		Horizon:      *horizon,
		Quiesce:      *quiesce,
		App:          campaign.AppKind(*app),
		InjectFork:   *injectFork,
	}

	start := time.Now()
	res := campaign.Run(cfg)
	wall := time.Since(start).Round(time.Millisecond)

	if *verbose {
		res.Trace.WriteTo(os.Stdout)
	}
	fmt.Printf("campaign %s seed=%d: n=%d clients=%d horizon=%s\n",
		res.Config.Profile, res.Config.Seed, 2*res.Config.T+1, res.Config.Clients, res.Config.Horizon)
	fmt.Printf("  acked=%d commits=%d retransmits=%d view-changes=%d detections=%d fault-actions=%d\n",
		res.Acked, res.Commits, res.Retransmits, res.ViewChanges, len(res.Detections), res.FaultActions)
	fmt.Printf("  availability measured=%.4f analytic=%.4f trace=%s (%s wall)\n",
		res.MeasuredAvail, res.AnalyticAvail, res.TraceDigest[:16], wall)

	if *artifacts != "" {
		if err := writeArtifacts(*artifacts, res); err != nil {
			fmt.Fprintln(os.Stderr, "campaign: writing artifacts:", err)
			return 2
		}
		fmt.Printf("  artifacts written to %s\n", *artifacts)
	}

	if !res.OK() {
		fmt.Printf("\nFAIL: %d safety violation(s):\n", len(res.Violations))
		for _, v := range res.Violations {
			fmt.Printf("  t=%s %s: %s\n", v.At, v.Kind, v.Detail)
		}
		fmt.Printf("\nseed: %d\nrepro: %s\n", res.Config.Seed, res.Repro)
		return 1
	}
	fmt.Println("  OK: all safety invariants held")
	return 0
}

// writeArtifacts drops the triage bundle a red nightly run uploads:
// the seed, the full event trace, and the one-line repro command.
func writeArtifacts(dir string, res *campaign.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "seed.txt"),
		[]byte(fmt.Sprintf("%d\n", res.Config.Seed)), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "repro.txt"),
		[]byte(res.Repro+"\n"), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.txt"))
	if err != nil {
		return err
	}
	if _, err := res.Trace.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
