// Package cluster implements the coordinator side of localityd's sharded
// cluster mode: static membership, a retrying HTTP shard client, per-shard
// health probing, and the coordinator loop that dispatches row shards,
// merges their checkpoints, and fails work over from dead shards.
//
// The whole design leans on one property: localvet-enforced determinism
// makes every sweep row batch idempotent, so recomputing a batch — on
// another shard, or locally in the coordinator's endgame — always produces
// the same bytes. Fault tolerance therefore needs no consensus, only
// disciplined failure handling: probe, time out, retry, reassign, and let
// harness.Checkpoint.Adopt detect the impossible (divergent batches)
// loudly. See DESIGN.md §10 for the argument in full.
package cluster

import (
	"fmt"
	"net/url"
	"os"
	"strings"
)

// Shard is one worker localityd instance in the static membership.
type Shard struct {
	// Name labels the shard in metrics, events, and checkpoint origins.
	Name string
	// URL is the shard's API base, e.g. "http://127.0.0.1:8177".
	URL string
}

// ParseShards parses a comma-separated membership list. Each entry is
// either "name=url" or a bare URL (named shard0, shard1, ... by position).
func ParseShards(list string) ([]Shard, error) {
	return parseMembership(strings.Split(list, ","))
}

// LoadShards reads a membership file: one entry per line in the same
// name=url (or bare URL) syntax, with blank lines and #-comments ignored.
func LoadShards(path string) ([]Shard, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: membership file: %w", err)
	}
	return parseMembership(strings.Split(string(data), "\n"))
}

// parseMembership parses membership entries, skipping blank ones and
// #-comments, and validates the result.
func parseMembership(entries []string) ([]Shard, error) {
	var shards []Shard
	for _, entry := range entries {
		entry = strings.TrimSpace(entry)
		if entry == "" || strings.HasPrefix(entry, "#") {
			continue
		}
		shards = append(shards, parseShard(entry, len(shards)))
	}
	return validateShards(shards)
}

func parseShard(entry string, index int) Shard {
	if name, url, ok := strings.Cut(entry, "="); ok {
		return Shard{Name: strings.TrimSpace(name), URL: strings.TrimSpace(url)}
	}
	return Shard{Name: fmt.Sprintf("shard%d", index), URL: entry}
}

func validateShards(shards []Shard) ([]Shard, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: empty membership")
	}
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if s.Name == "" || s.URL == "" {
			return nil, fmt.Errorf("cluster: malformed member %q=%q", s.Name, s.URL)
		}
		if u, err := url.Parse(s.URL); err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: member %s URL %q needs a scheme and a host", s.Name, s.URL)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("cluster: duplicate member name %q", s.Name)
		}
		seen[s.Name] = true
	}
	return shards, nil
}
