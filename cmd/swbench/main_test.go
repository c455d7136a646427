package main

import (
	"flag"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestFlagsMatchReadme holds swbench's flag set and README to each other:
// every flag README attributes to swbench is defined, and every defined flag
// is shown. README attributes a flag to swbench on a command line that starts
// with "swbench " (continued by a trailing backslash), or in a backticked
// span that starts with it, such as `swbench -exp concise`.
func TestFlagsMatchReadme(t *testing.T) {
	fs := flag.NewFlagSet("swbench", flag.ContinueOnError)
	defineFlags(fs)
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	shown := readmeFlags(string(readme))
	if len(shown) == 0 {
		t.Fatal("README shows no swbench flag")
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !shown[f.Name] {
			t.Errorf("README never shows swbench -%s", f.Name)
		}
	})
	var unknown []string
	for name := range shown {
		if fs.Lookup(name) == nil && name != "h" { // -h is the flag package's help
			unknown = append(unknown, "-"+name)
		}
	}
	sort.Strings(unknown)
	if len(unknown) > 0 {
		t.Errorf("README shows swbench flags swbench does not define: %v", unknown)
	}
}

var (
	flagToken = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	spanCmd   = regexp.MustCompile("`swbench ([^`]*)`")
)

// readmeFlags returns the names of the flags a README attributes to swbench.
func readmeFlags(readme string) map[string]bool {
	shown := map[string]bool{}
	add := func(text string) {
		text, _, _ = strings.Cut(text, "#") // a command line's comment
		for _, m := range flagToken.FindAllStringSubmatch(text, -1) {
			shown[m[1]] = true
		}
	}
	command := false
	for _, line := range strings.Split(readme, "\n") {
		if strings.HasPrefix(line, "swbench ") {
			command = true
		}
		if command {
			add(line)
			command = strings.HasSuffix(line, "\\")
		}
		for _, m := range spanCmd.FindAllStringSubmatch(line, -1) {
			add(m[1])
		}
	}
	return shown
}
