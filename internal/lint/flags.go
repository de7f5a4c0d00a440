package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// FlagReason is why a command-line flag exists. Why says it in words. File,
// when set, must mention the flag as -name: the caller that sets a value
// other than the default, or, as "path#Heading", the runbook section whose
// rows tell an operator to change it. An empty File marks a deployment
// setting: an address, a path, or the graph's shape or identity.
type FlagReason struct{ Why, File string }

// FlagFindings holds a binary's flags to the option rule: every flag in fs
// has a reason, every reason names a flag in fs, every file a reason names
// (relative to root) mentions its flag, and runbook, the flags the binary's
// runbook lists, holds exactly fs's flags.
func FlagFindings(fs *flag.FlagSet, reasons map[string]FlagReason, runbook []string, root string) ([]string, error) {
	var out []string
	listed := map[string]bool{}
	for _, name := range runbook {
		listed[name] = true
		if fs.Lookup(name) == nil {
			out = append(out, fmt.Sprintf("the runbook lists -%s, which the binary does not take", name))
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if _, ok := reasons[f.Name]; !ok {
			out = append(out, fmt.Sprintf("-%s has no reason: make it the constant it defaults to, or record who sets it", f.Name))
		}
		if !listed[f.Name] {
			out = append(out, fmt.Sprintf("the runbook does not list -%s", f.Name))
		}
	})
	for name, r := range reasons {
		if fs.Lookup(name) == nil {
			out = append(out, fmt.Sprintf("-%s has a reason but no flag", name))
			continue
		}
		if r.File == "" {
			continue
		}
		path, heading, _ := strings.Cut(r.File, "#")
		b, err := os.ReadFile(filepath.Join(root, path))
		if err != nil {
			return nil, err
		}
		if heading != "" {
			b = []byte(Section(string(b), heading))
		}
		if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`).Match(b) {
			out = append(out, fmt.Sprintf("-%s: its reason (%s) names %s, which never mentions -%s", name, r.Why, r.File, name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// DocFlags returns the flags text cites in backticks as `-name`.
func DocFlags(text string) []string {
	var out []string
	for _, m := range regexp.MustCompile("`-([a-z][a-z0-9-]*)`").FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return out
}

// Section returns the part of the Markdown doc from the heading line whose
// text is heading up to the next heading line of any level, or "".
func Section(doc, heading string) string {
	return regexp.MustCompile(`(?m)^#+ ` + regexp.QuoteMeta(heading) + `\n([^#\n].*\n|\n)*`).FindString(doc)
}
