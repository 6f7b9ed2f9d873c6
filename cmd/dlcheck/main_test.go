package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	verdictHeader = regexp.MustCompile(`(?m)^# verdict: (safe|unsafe)$`)
	lemma1Line    = regexp.MustCompile(`\(Lemma 1\):\s+(YES|NO)\n`)
)

// TestTestdataVerdicts runs the checker over every testdata/*.txn and
// holds its Theorem 4 verdict — and the exhaustive Lemma 1 oracle's — to
// the file's own "# verdict:" header.
func TestTestdataVerdicts(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.txn")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no testdata/*.txn files")
	}
	for _, file := range files {
		t.Run(strings.TrimSuffix(filepath.Base(file), ".txn"), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			m := verdictHeader.FindSubmatch(src)
			if m == nil {
				t.Fatalf("%s carries no \"# verdict: safe|unsafe\" header", file)
			}
			wantSafe := string(m[1]) == "safe"

			var out bytes.Buffer
			if code := run([]string{"-brute", file}, &out); code != 0 {
				t.Fatalf("exit code %d\n%s", code, out.String())
			}
			_, thm4, ok := strings.Cut(out.String(), "(Theorem 4):\n")
			if !ok {
				t.Fatalf("no Theorem 4 section in output:\n%s", out.String())
			}
			thm4, _, _ = strings.Cut(thm4, "\n")
			if gotSafe := strings.Contains(thm4, "SAFE AND DEADLOCK-FREE"); gotSafe != wantSafe {
				t.Errorf("Theorem 4 says safe=%v, header says %q:\n%s", gotSafe, m[1], out.String())
			}
			brute := lemma1Line.FindStringSubmatch(out.String())
			if brute == nil {
				t.Fatalf("no Lemma 1 oracle verdict in output:\n%s", out.String())
			}
			if gotSafe := brute[1] == "YES"; gotSafe != wantSafe {
				t.Errorf("Lemma 1 oracle says safe=%v, header says %q", gotSafe, m[1])
			}
		})
	}
}
