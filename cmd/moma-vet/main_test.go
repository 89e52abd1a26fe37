package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// vet runs the command in this directory (patterns are relative to it) and
// returns its exit code, stdout and stderr.
func vet(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestCleanPackageExitsZero(t *testing.T) {
	code, stdout, stderr := vet("../../internal/par")
	if code != 0 || stdout != "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 0 and no findings", code, stdout, stderr)
	}
}

func TestKnownFindingExitsOne(t *testing.T) {
	code, stdout, stderr := vet("../../internal/analysis/mapiter/testdata/src/mapiter")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stdout, "a.go:85:3: mapiter: accumulates floating-point total") {
		t.Errorf("stdout lacks the known float-accumulation finding:\n%s", stdout)
	}
	lines := strings.Count(stdout, "\n")
	if want := "moma-vet: " + strconv.Itoa(lines) + " finding(s)\n"; stderr != want {
		t.Errorf("stderr %q, want %q", stderr, want)
	}
}

// TestJSONMatchesProblemMatcher holds every -json line to the regexp CI's
// problem matcher annotates with, read from the matcher file itself.
func TestJSONMatchesProblemMatcher(t *testing.T) {
	raw, err := os.ReadFile("../../.github/moma-vet-matcher.json")
	if err != nil {
		t.Fatal(err)
	}
	var matcher struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp string
				Code   int // the analyzer's group
			}
		}
	}
	if err := json.Unmarshal(raw, &matcher); err != nil {
		t.Fatal(err)
	}
	pattern := matcher.ProblemMatcher[0].Pattern[0]
	re := regexp.MustCompile(pattern.Regexp)

	code, stdout, stderr := vet("-json", "../../internal/analysis/errsink/testdata/src/es")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	for _, line := range lines {
		m := re.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line does not match the problem matcher:\n%s", line)
			continue
		}
		if got := m[pattern.Code]; got != "errsink" {
			t.Errorf("analyzer group = %q, want errsink, in %s", got, line)
		}
	}
}

func TestSuppressionsPrintsCount(t *testing.T) {
	code, stdout, stderr := vet("-suppressions", "../../...")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr %q)", code, stderr)
	}
	m := regexp.MustCompile(`^moma-vet: (\d+) suppression\(s\)`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("stderr %q lacks the count line", stderr)
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 || n != strings.Count(stdout, "\n") {
		t.Errorf("count line says %s, stdout lists %d suppressions", m[1], strings.Count(stdout, "\n"))
	}
}
