// Command errgen generates the synthetic errata corpus and writes the
// specification-update documents as text files — the stand-in for
// downloading the vendor PDFs.
//
// Usage:
//
//	errgen [-seed N] [-dir corpus/] [-truth truth.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/corpus"
	"repro/internal/specdoc"
	"repro/internal/store"

	// Wire the built-in rule pack and corpus profile as the defaults.
	_ "repro/plugins/defaults"
)

func main() {
	seed := flag.Int64("seed", 1, "generator seed")
	dir := flag.String("dir", "corpus", "output directory for the documents")
	truth := flag.String("truth", "", "optional path for the ground-truth database JSON")
	flag.Parse()

	gt, err := corpus.Generate(*seed)
	if err != nil {
		fatal(err)
	}
	texts := specdoc.WriteAll(gt.DB, specdoc.WriteOptions{DuplicateFields: gt.DuplicateFields()})

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	total := 0
	for key, text := range texts {
		path := filepath.Join(*dir, key+".txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			fatal(err)
		}
		total += len(text)
	}
	fmt.Printf("wrote %d documents (%d bytes) to %s\n", len(texts), total, *dir)

	if *truth != "" {
		if err := store.Save(gt.DB, *truth); err != nil {
			fatal(err)
		}
		fmt.Printf("ground truth saved to %s\n", *truth)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "errgen:", err)
	os.Exit(1)
}
