package main

import (
	"flag"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestFlagsMatchReadme holds swd's flag set, README and each other in step:
// swd defines exactly its deployment settings and the knobs a drill or test
// sets, README shows every one of them, and README shows no swd flag that
// swd does not define. README shows a flag on a command line that starts
// with "swd " (continued by a trailing backslash), or in a backticked span
// that starts with it, such as `-replication`; another program's flag is
// written with its command in the span, such as `swcli fsck -fix`.
func TestFlagsMatchReadme(t *testing.T) {
	fs := flag.NewFlagSet("swd", flag.ContinueOnError)
	defineFlags(fs)
	var defined []string
	fs.VisitAll(func(f *flag.Flag) { defined = append(defined, f.Name) })
	want := []string{
		"addr", "breaker-open", "cache", "dir", "hedge-initial", "hints-dir", "mem",
		"peers", "repair-interval", "replication", "shard-id", "slowlog-threshold",
		"timeout", "write-quorum",
	}
	if !slices.Equal(defined, want) { // VisitAll visits in name order
		t.Fatalf("swd defines %v, want %v", defined, want)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	shown := readmeFlags(string(readme))
	for _, name := range defined {
		if !shown[name] {
			t.Errorf("README never shows -%s", name)
		}
	}
	var unknown []string
	for name := range shown {
		if fs.Lookup(name) == nil {
			unknown = append(unknown, "-"+name)
		}
	}
	sort.Strings(unknown)
	if len(unknown) > 0 {
		t.Errorf("README shows swd flags swd does not define: %v", unknown)
	}
}

var (
	flagToken = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	flagSpan  = regexp.MustCompile("`-([a-z][a-z0-9-]*)")
)

// readmeFlags returns the names of the swd flags a README shows.
func readmeFlags(readme string) map[string]bool {
	shown := map[string]bool{}
	command := false
	for _, line := range strings.Split(readme, "\n") {
		if strings.HasPrefix(line, "swd ") {
			command = true
		}
		if command {
			for _, m := range flagToken.FindAllStringSubmatch(line, -1) {
				shown[m[1]] = true
			}
			command = strings.HasSuffix(line, "\\")
		}
		for _, m := range flagSpan.FindAllStringSubmatch(line, -1) {
			shown[m[1]] = true
		}
	}
	return shown
}
