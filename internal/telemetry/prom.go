package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteProm renders samples in the Prometheus text exposition format
// (version 0.0.4): a # HELP comment when the sample has help text, a
// # TYPE comment, then the `name value` line.
func WriteProm(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	for _, s := range samples {
		if s.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", s.Name, s.Help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", s.Name, s.Kind)
		fmt.Fprintf(bw, "%s %s\n", s.Name, strconv.FormatFloat(s.Value, 'g', -1, 64))
	}
	return bw.Flush()
}

// validMetricName reports whether name matches the Prometheus metric name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ParseProm parses Prometheus text exposition into a name→value map. The
// CI metrics smoke and netchainctl top both use it, so a malformed line
// is an error, not a skip: a metric name outside the grammar, a value
// that doesn't parse as a float, or an unterminated label set all fail.
// Labeled series are keyed as name{labels} verbatim; a later sample of
// the same key wins. A trailing timestamp (one integer field) is allowed.
func ParseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Split the series key (name + optional {labels}) from the value.
		key := line
		rest := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.IndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("telemetry: line %d: unterminated label set", lineNo)
			}
			key = line[:j+1]
			rest = strings.TrimSpace(line[j+1:])
			if !validMetricName(line[:i]) {
				return nil, fmt.Errorf("telemetry: line %d: bad metric name %q", lineNo, line[:i])
			}
		} else {
			i := strings.IndexAny(line, " \t")
			if i < 0 {
				return nil, fmt.Errorf("telemetry: line %d: no value", lineNo)
			}
			key = line[:i]
			rest = strings.TrimSpace(line[i:])
			if !validMetricName(key) {
				return nil, fmt.Errorf("telemetry: line %d: bad metric name %q", lineNo, key)
			}
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return nil, fmt.Errorf("telemetry: line %d: want value [timestamp], got %q", lineNo, rest)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: bad value %q", lineNo, fields[0])
		}
		if len(fields) == 2 {
			if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
				return nil, fmt.Errorf("telemetry: line %d: bad timestamp %q", lineNo, fields[1])
			}
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
