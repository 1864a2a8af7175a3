// Command rememberr builds the RemembERR database and regenerates the
// paper's tables and figures.
//
// Usage:
//
//	rememberr build   [-seed N] [-o db.json] [-format v1|v2] [-cache-dir D] [-trace]  build and save
//	rememberr stats   [-seed N | -db F]              print corpus statistics
//	rememberr experiment <id>|all|ext [-csv-dir D] [-svg-dir D]
//	rememberr list                                   list experiment identifiers
//	rememberr observations                           evaluate O1-O13
//	rememberr query   [filters...]                   count/list matching errata
//	rememberr campaign [-class C] [-n N]             derive a test-campaign plan
//	rememberr casestudy [-tests N] [-monitors N]     directed-vs-random simulation
//	rememberr severity [-top N]                      conservative severity breakdown
//	rememberr rediscovery                            inherited/known-at-release table
//	rememberr report  [-o report.html]               single-page HTML report
//	rememberr taxonomy                               print Tables IV-VI as Markdown
//	rememberr export  [-structured] [-o F]           export JSON (classic or Table VII)
//	rememberr convert -in F [-o F] [-format v1|v2]   convert a saved database between formats
//
// Every data command accepts -seed N (build seed) or -db FILE (load a
// previously saved database: v1 JSON or v2, optionally ".gz").
package main

import (
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	rememberr "repro"
	"repro/internal/index"
	"repro/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "build":
		err = cmdBuild(args)
	case "stats":
		err = cmdStats(args)
	case "experiment":
		err = cmdExperiment(args)
	case "list":
		err = cmdList()
	case "observations":
		err = cmdObservations(args)
	case "query":
		err = cmdQuery(os.Stdout, args)
	case "campaign":
		err = cmdCampaign(args)
	case "export":
		err = cmdExport(args)
	case "convert":
		err = cmdConvert(args)
	case "severity":
		err = cmdSeverity(args)
	case "rediscovery":
		err = cmdRediscovery(args)
	case "casestudy":
		err = cmdCaseStudy(args)
	case "report":
		err = cmdReport(args)
	case "taxonomy":
		fmt.Print(rememberr.BaseScheme().Markdown(-1))
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "rememberr: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rememberr:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: rememberr <command> [flags]

commands:
  build          build the database end to end and save it as JSON
  stats          print corpus statistics
  experiment     regenerate a table/figure by id, or "all"
  list           list experiment identifiers
  observations   evaluate the paper's observations O1-O13
  query          filter errata (see -help)
  campaign       derive a ranked test-campaign plan (Section VI)
  export         export the database as JSON
  convert        convert a saved database between store formats (v1/v2)
  severity       conservative severity breakdown of the unique errata
  rediscovery    per-document inherited/known-at-release statistics
  casestudy      directed-vs-random testing campaign simulation (Section VI)
  report         write the full reproduction report as one HTML page
  taxonomy       print the 60-category classification scheme (Tables IV-VI)

common flags: -seed N (build seed), -db FILE (load a saved database
              instead: v1 JSON or v2, optionally .gz),
              -parallelism N (pipeline workers; 0 = all CPUs, 1 = sequential),
              -cache-dir D (content-addressed pipeline cache; warm rebuilds
              replay unchanged stages)
`)
}

func buildDB(fs *flag.FlagSet, args []string) (*rememberr.Database, error) {
	seed := fs.Int64("seed", 1, "corpus generator seed")
	dbFile := fs.String("db", "", "load a saved database (v1 JSON or v2, optionally .gz) instead of building")
	par := fs.Int("parallelism", 0, "pipeline worker goroutines (0 = all CPUs, 1 = sequential)")
	cacheDir := fs.String("cache-dir", "", "pipeline artifact cache directory (incremental rebuilds)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *dbFile != "" {
		return rememberr.Load(*dbFile)
	}
	db, _, err := rememberr.Build(rememberr.WithSeed(*seed),
		rememberr.WithParallelism(*par), rememberr.WithCache(*cacheDir))
	return db, err
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	out := fs.String("o", "rememberr.json", "output file")
	seed := fs.Int64("seed", 1, "corpus generator seed")
	par := fs.Int("parallelism", 0, "pipeline worker goroutines (0 = all CPUs, 1 = sequential)")
	cacheDir := fs.String("cache-dir", "", "pipeline artifact cache directory (incremental rebuilds)")
	format := fs.String("format", "", "store format: v1 (JSON), v2 (zero-decode binary), or empty to pick by filename (.v2 suffix)")
	trace := fs.Bool("trace", false, "print the per-stage build timing tree")
	if err := fs.Parse(args); err != nil {
		return err
	}
	buildOpts := []rememberr.Option{
		rememberr.WithSeed(*seed),
		rememberr.WithParallelism(*par),
	}
	if *cacheDir != "" {
		buildOpts = append(buildOpts, rememberr.WithCache(*cacheDir))
	}
	db, rep, err := rememberr.Build(buildOpts...)
	if err != nil {
		return err
	}
	if err := store.SaveFormat(db.Core(), *out, *format); err != nil {
		return err
	}
	st := db.Stats()
	fmt.Printf("built %d errata (%d unique) across %d documents\n", st.Total, st.Unique, st.Documents)
	fmt.Printf("parser diagnostics: %d; confirmed duplicate pairs: %d; human decisions: %d\n",
		len(rep.Diagnostics), rep.Dedup.ConfirmedPairs, rep.Annotation.HumanDecisions)
	fmt.Printf("saved to %s\n", *out)
	if *trace && rep.Trace != nil {
		fmt.Println("\nbuild stages:")
		printTrace(rep.Trace, 1)
	}
	return nil
}

// printTrace renders one span and its children as an indented tree.
func printTrace(sp *rememberr.TraceSpan, depth int) {
	fmt.Printf("%*s%-10s %12s", depth*2, "", sp.Name, time.Duration(sp.DurationNS).Round(time.Microsecond))
	if sp.Items > 0 {
		fmt.Printf("  (%d items)", sp.Items)
	}
	if sp.Cached {
		fmt.Printf("  [cached]")
	}
	fmt.Println()
	for _, c := range sp.Children {
		printTrace(c, depth+1)
	}
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	db, err := buildDB(fs, args)
	if err != nil {
		return err
	}
	st := db.Stats()
	fmt.Printf("documents:     %d (Intel %d, AMD %d)\n", st.Documents, st.IntelDocs, st.AMDDocs)
	fmt.Printf("errata:        %d (Intel %d, AMD %d)\n", st.Total, st.IntelTotal, st.AMDTotal)
	fmt.Printf("unique errata: %d (Intel %d, AMD %d)\n", st.Unique, st.IntelUnique, st.AMDUnique)
	fmt.Printf("annotated:     %d\n", st.Annotated)
	return nil
}

func cmdList() error {
	db, _, err := rememberr.Build()
	if err != nil {
		return err
	}
	for _, ex := range rememberr.NewExperiments(db).All() {
		fmt.Printf("%-20s %s\n", ex.ID, ex.Title)
	}
	return nil
}

func cmdExperiment(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("experiment: missing id (try 'rememberr list')")
	}
	id := args[0]
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	csvDir := fs.String("csv-dir", "", "also write per-experiment CSV files to this directory")
	svgDir := fs.String("svg-dir", "", "also write per-figure SVG files to this directory")
	db, err := buildDB(fs, args[1:])
	if err != nil {
		return err
	}
	x := rememberr.NewExperiments(db)
	var exps []*rememberr.Experiment
	switch id {
	case "all":
		exps = x.All()
	case "ext", "extensions":
		exps = x.Extensions()
	default:
		ex, err := x.ExtByID(id)
		if err != nil {
			return err
		}
		exps = []*rememberr.Experiment{ex}
	}
	for _, ex := range exps {
		fmt.Printf("=== %s: %s ===\n", ex.ID, ex.Title)
		fmt.Printf("paper: %s\n\n", ex.PaperClaim)
		fmt.Println(ex.Text)
		for _, c := range ex.Checks {
			mark := "PASS"
			if !c.Pass {
				mark = "FAIL"
			}
			fmt.Printf("[%s] %s — %s\n", mark, c.Name, c.Detail)
		}
		fmt.Println()
		if *csvDir != "" && ex.CSV != "" {
			if err := writeArtifact(*csvDir, ex.ID+".csv", ex.CSV); err != nil {
				return err
			}
		}
		if *svgDir != "" && ex.SVG != "" {
			if err := writeArtifact(*svgDir, ex.ID+".svg", ex.SVG); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeArtifact(dir, name, content string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}

func cmdObservations(args []string) error {
	fs := flag.NewFlagSet("observations", flag.ExitOnError)
	db, err := buildDB(fs, args)
	if err != nil {
		return err
	}
	for _, o := range db.Observations() {
		mark := "HOLDS"
		if !o.Holds {
			mark = "FAILS"
		}
		fmt.Printf("[%s] %s: %s\n        evidence: %s\n", mark, o.ID, o.Statement, o.Evidence)
	}
	return nil
}

// cmdQuery registers one flag per row of index.FilterTable, named
// after its query parameter with '_' replaced by '-' (-min-triggers),
// and prints the unique matches to w.
func cmdQuery(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	values := url.Values{}
	for _, row := range index.FilterTable {
		name := strings.ReplaceAll(row.Name, "_", "-")
		add := func(s string) error { values.Add(row.Name, s); return nil }
		if row.Switch {
			fs.BoolFunc(name, row.Usage, add) // may be given bare: -complex
		} else {
			fs.Func(name, row.Usage, add)
		}
	}
	listTitles := fs.Bool("titles", false, "print matching titles")
	db, err := buildDB(fs, args)
	if err != nil {
		return err
	}
	filters, err := index.ParseFilters(values)
	if err != nil {
		return err
	}
	matches := filters.Apply(db.BuildIndex().Query()).Unique()
	fmt.Fprintf(w, "%d unique errata match\n", len(matches))
	if *listTitles {
		for _, e := range matches {
			fmt.Fprintf(w, "  %-12s %s\n", e.FullID(), e.Title)
		}
	}
	return nil
}

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	class := fs.String("class", "", "focus trigger class, e.g. Trg_POW")
	n := fs.Int("n", 10, "maximum directives")
	db, err := buildDB(fs, args)
	if err != nil {
		return err
	}
	opts := rememberr.DefaultCampaignOptions()
	opts.FocusClass = *class
	opts.MaxDirectives = *n
	plan := db.PlanCampaign(opts)
	fmt.Print(rememberr.RenderPlan(plan))
	return nil
}

func cmdSeverity(args []string) error {
	fs := flag.NewFlagSet("severity", flag.ExitOnError)
	top := fs.Int("top", 0, "also list the N most critical errata per vendor")
	db, err := buildDB(fs, args)
	if err != nil {
		return err
	}
	for _, b := range db.Severities() {
		fmt.Printf("%s (%d unique errata):\n", b.Vendor, b.Total)
		for _, sev := range []rememberr.Severity{rememberr.SeverityFatal,
			rememberr.SeverityCorrupting, rememberr.SeverityDegrading, rememberr.SeverityUnknown} {
			if n := b.Counts[sev]; n > 0 {
				fmt.Printf("  %-12s %4d (%.1f%%)\n", sev, n, 100*float64(n)/float64(b.Total))
			}
		}
		fmt.Printf("  fatal and reachable from a VM guest: %d\n", b.GuestReachableFatal)
		if *top > 0 {
			vendor := rememberr.Intel
			if b.Vendor == rememberr.AMD {
				vendor = rememberr.AMD
			}
			for _, e := range db.MostCritical(vendor, *top) {
				fmt.Printf("    %-10s [%s] %s\n", e.Key, db.Grade(e), e.Title)
			}
		}
	}
	return nil
}

func cmdRediscovery(args []string) error {
	fs := flag.NewFlagSet("rediscovery", flag.ExitOnError)
	db, err := buildDB(fs, args)
	if err != nil {
		return err
	}
	fmt.Print(rememberr.RenderRediscoveries(db.Rediscoveries(rememberr.Intel)))
	return nil
}

func cmdCaseStudy(args []string) error {
	fs := flag.NewFlagSet("casestudy", flag.ExitOnError)
	tests := fs.Int("tests", 600, "test budget per strategy")
	bugs := fs.Int("bugs", 40, "hidden bug population")
	monitors := fs.Int("monitors", 4, "observation budget per test")
	db, err := buildDB(fs, args)
	if err != nil {
		return err
	}
	opts := rememberr.DefaultCaseStudyOptions()
	opts.Tests = *tests
	opts.Bugs = *bugs
	opts.ObservationBudget = *monitors
	res, err := db.SimulateDirectedCampaign(opts)
	if err != nil {
		return err
	}
	fmt.Print(rememberr.RenderCaseStudy(res))
	return nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	out := fs.String("o", "report.html", "output HTML file")
	db, err := buildDB(fs, args)
	if err != nil {
		return err
	}
	page := rememberr.HTMLReport(db)
	if err := os.WriteFile(*out, []byte(page), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d bytes to %s\n", len(page), *out)
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	out := fs.String("o", "rememberr.json", "output file")
	structured := fs.Bool("structured", false, "export in the proposed Table VII format")
	db, err := buildDB(fs, args)
	if err != nil {
		return err
	}
	var data []byte
	if *structured {
		data, err = store.EncodeStructured(db.Core())
	} else {
		data, err = store.Encode(db.Core())
	}
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d bytes to %s\n", len(data), *out)
	return nil
}

// cmdConvert rereads a saved database in whatever format it is in
// (sniffed from the content) and rewrites it in the requested one, so
// existing v1 archives can move to the zero-decode FormatVersion 2
// layout — and back — without a rebuild.
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input database file (v1 or v2, .gz supported)")
	out := fs.String("o", "", "output file (default: input with .v2 added or removed)")
	format := fs.String("format", "", "target format: v1, v2, or empty to pick by output filename")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("convert: -in is required")
	}
	// Open the source mmap-backed where possible: the conversion then
	// holds one materialized database plus the encoder's section buffers,
	// never a second full copy of the input — and SaveFormat streams the
	// output through a temp file, so the encoded bytes are not buffered
	// alongside the database either.
	r, err := store.Open(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	db, err := r.Database()
	if err != nil {
		return err
	}
	target := *out
	if target == "" {
		// Derive a sibling name: toggle the ".v2" marker before any ".gz".
		gz := strings.HasSuffix(*in, ".gz")
		base := strings.TrimSuffix(*in, ".gz")
		if strings.HasSuffix(base, ".v2") {
			base = strings.TrimSuffix(base, ".v2")
		} else {
			base += ".v2"
		}
		target = base
		if gz {
			target += ".gz"
		}
	}
	if err := store.SaveFormat(db, target, *format); err != nil {
		return err
	}
	fi, err := os.Stat(target)
	if err != nil {
		return err
	}
	fmt.Printf("converted %s -> %s (%d bytes)\n", *in, target, fi.Size())
	return nil
}
