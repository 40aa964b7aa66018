package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// Format selects a reporter.
type Format string

const (
	FormatText  Format = "text"
	FormatSARIF Format = "sarif"
)

// Write renders the result in the given format. The text reporter ends with
// a one-line summary when any diagnostics survived.
func Write(w io.Writer, res *Result, format Format) error {
	switch format {
	case FormatText, "":
		return writeText(w, res)
	case FormatSARIF:
		return writeSARIF(w, res)
	default:
		return fmt.Errorf("lint: unknown format %q (want text or sarif)", format)
	}
}

func writeText(w io.Writer, res *Result) error {
	for _, d := range res.Diagnostics {
		if _, err := fmt.Fprintln(w, d); err != nil {
			return err
		}
	}
	if n := len(res.Diagnostics); n > 0 {
		_, err := fmt.Fprintf(w, "ccube-lint: %d issues (%d suppressed)\n", n, res.Suppressed)
		return err
	}
	return nil
}

// --- SARIF 2.1.0 -------------------------------------------------------------

// The SARIF types cover the subset of the 2.1.0 schema CI consumers
// (GitHub code scanning and friends) require: version, $schema, one run
// with a tool driver carrying rule metadata, and results with physical
// locations.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

const sarifSchemaURI = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

func writeSARIF(w io.Writer, res *Result) error {
	// Rule metadata covers every rule that fired plus every registered
	// analyzer, so a clean run still advertises what was checked.
	ruleIdx := map[string]int{}
	var rules []sarifRule
	addRule := func(name, doc string) {
		if _, ok := ruleIdx[name]; ok {
			return
		}
		ruleIdx[name] = len(rules)
		rules = append(rules, sarifRule{ID: name, ShortDescription: sarifMessage{Text: firstLine(doc)}})
	}
	for _, a := range All() {
		addRule(a.Name, a.Doc)
	}
	for _, d := range res.Diagnostics {
		addRule(d.Rule, d.Message)
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })
	for i, r := range rules {
		ruleIdx[r.ID] = i
	}

	results := make([]sarifResult, 0, len(res.Diagnostics))
	for _, d := range res.Diagnostics {
		results = append(results, sarifResult{
			RuleID:    d.Rule,
			RuleIndex: ruleIdx[d.Rule],
			Level:     "error",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: filepath.ToSlash(d.Pos.Filename)},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  sarifSchemaURI,
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "ccube-lint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	if s == "" {
		return "(no description)"
	}
	return s
}
