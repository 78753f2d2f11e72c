package sparql

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// jsonResults mirrors the SPARQL 1.1 Query Results JSON Format, which is
// what real endpoints return and what the endpoint client parses.
type jsonResults struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Boolean *bool `json:"boolean,omitempty"`
	Results *struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	} `json:"results,omitempty"`
}

type jsonTerm struct {
	Type     string `json:"type"` // "uri" | "literal" | "bnode"
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"xml:lang,omitempty"`
}

// MarshalJSON renders the result in the SPARQL 1.1 JSON results format.
func (r *Result) MarshalJSON() ([]byte, error) {
	var out jsonResults
	if r.Ask {
		b := r.Boolean
		out.Boolean = &b
		return json.Marshal(out)
	}
	out.Head.Vars = r.Vars
	out.Results = &struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	}{Bindings: make([]map[string]jsonTerm, 0, len(r.Rows))}
	for _, row := range r.Rows {
		jb := make(map[string]jsonTerm, len(row))
		for v, t := range row {
			jb[v] = termToJSON(t)
		}
		out.Results.Bindings = append(out.Results.Bindings, jb)
	}
	return json.Marshal(out)
}

// UnmarshalJSON parses the SPARQL 1.1 JSON results format.
func (r *Result) UnmarshalJSON(data []byte) error {
	var in jsonResults
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Boolean != nil {
		r.Ask = true
		r.Boolean = *in.Boolean
		return nil
	}
	r.Vars = in.Head.Vars
	if in.Results == nil {
		return nil
	}
	r.Rows = make([]Binding, 0, len(in.Results.Bindings))
	for _, jb := range in.Results.Bindings {
		row := Binding{}
		for v, jt := range jb {
			t, err := termFromJSON(jt)
			if err != nil {
				return err
			}
			row[v] = t
		}
		r.Rows = append(r.Rows, row)
	}
	return nil
}

func termToJSON(t rdf.Term) jsonTerm {
	switch t.Kind {
	case rdf.KindIRI:
		return jsonTerm{Type: "uri", Value: t.Value}
	case rdf.KindBlank:
		return jsonTerm{Type: "bnode", Value: t.Value}
	default:
		return jsonTerm{Type: "literal", Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
	}
}

func termFromJSON(jt jsonTerm) (rdf.Term, error) {
	switch jt.Type {
	case "uri":
		return rdf.NewIRI(jt.Value), nil
	case "bnode":
		return rdf.NewBlank(jt.Value), nil
	case "literal", "typed-literal":
		if jt.Lang != "" {
			return rdf.NewLangLiteral(jt.Value, jt.Lang), nil
		}
		return rdf.NewTypedLiteral(jt.Value, jt.Datatype), nil
	default:
		return rdf.Term{}, fmt.Errorf("sparql: unknown JSON term type %q", jt.Type)
	}
}

// Table renders the result as an aligned text table for CLI output.
func (r *Result) Table() string {
	if r.Ask {
		return fmt.Sprintf("ASK → %v\n", r.Boolean)
	}
	widths := make([]int, len(r.Vars))
	cells := make([][]string, 0, len(r.Rows)+1)
	head := make([]string, len(r.Vars))
	for i, v := range r.Vars {
		head[i] = "?" + v
		widths[i] = len(head[i])
	}
	cells = append(cells, head)
	for _, row := range r.Rows {
		line := make([]string, len(r.Vars))
		for i, v := range r.Vars {
			if t, ok := row[v]; ok {
				line[i] = t.String()
			}
			if len(line[i]) > widths[i] {
				widths[i] = len(line[i])
			}
		}
		cells = append(cells, line)
	}
	var sb strings.Builder
	for _, line := range cells {
		for i, c := range line {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SortedRows returns the rows sorted by their canonical key; useful for
// deterministic assertions in tests.
func (r *Result) SortedRows() []Binding {
	rows := make([]Binding, len(r.Rows))
	copy(rows, r.Rows)
	sort.Slice(rows, func(i, j int) bool {
		return bindingKey(rows[i], r.Vars) < bindingKey(rows[j], r.Vars)
	})
	return rows
}
