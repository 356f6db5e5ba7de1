package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a parsed GET /metrics.
type scrape []promSample

// fetchMetrics scrapes a server's /metrics endpoint.
func fetchMetrics(baseURL string) (scrape, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: HTTP %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads the text exposition format: comment lines are
// skipped and every other line is `name{k="v",...} value`.
func parseMetrics(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		series := line[:sp]
		s := promSample{name: series, labels: map[string]string{}, value: v}
		if i := strings.IndexByte(series, '{'); i >= 0 {
			s.name = series[:i]
			body := strings.TrimSuffix(series[i+1:], "}")
			for _, kv := range splitLabels(body) {
				eq := strings.IndexByte(kv, '=')
				if eq < 0 {
					return nil, fmt.Errorf("metrics line %q: bad label %q", line, kv)
				}
				val, err := strconv.Unquote(kv[eq+1:])
				if err != nil {
					return nil, fmt.Errorf("metrics line %q: %w", line, err)
				}
				s.labels[kv[:eq]] = val
			}
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// splitLabels splits `a="x",b="y,z"` on the commas outside quotes.
func splitLabels(body string) []string {
	var out []string
	inQuote, escaped := false, false
	start := 0
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case escaped:
			escaped = false
		case c == '\\':
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case c == ',' && !inQuote:
			out = append(out, body[start:i])
			start = i + 1
		}
	}
	if start < len(body) {
		out = append(out, body[start:])
	}
	return out
}

// sum adds every series called name whose labels include match.
func (s scrape) sum(name string, match map[string]string) float64 {
	var total float64
next:
	for _, x := range s {
		if x.name != name {
			continue
		}
		for k, v := range match {
			if x.labels[k] != v {
				continue next
			}
		}
		total += x.value
	}
	return total
}

// has reports whether the scrape holds a series called name.
func (s scrape) has(name string) bool {
	for _, x := range s {
		if x.name == name {
			return true
		}
	}
	return false
}

// delta is after.sum − before.sum for one selector.
func delta(before, after scrape, name string, match map[string]string) float64 {
	return after.sum(name, match) - before.sum(name, match)
}

// histMean is the mean observation of a histogram over the interval
// between two scrapes (its _sum delta over its _count delta; 0 when
// nothing was observed).
func histMean(before, after scrape, name string, match map[string]string) float64 {
	n := delta(before, after, name+"_count", match)
	if n == 0 {
		return 0
	}
	return delta(before, after, name+"_sum", match) / n
}
