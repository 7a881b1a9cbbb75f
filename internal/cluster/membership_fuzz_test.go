package cluster

import (
	"net/url"
	"strings"
	"testing"
)

// FuzzParseShards feeds arbitrary text through both membership syntaxes —
// the -shards list and the membership-file lines — and checks that every
// accepted membership is usable: unique non-empty names, and URLs with a
// scheme.
func FuzzParseShards(f *testing.F) {
	for _, seed := range []string{
		"http://a:1, two=http://b:2 ,",
		"# cluster members\n\nhttp://a:1\nw2 = http://b:2\n",
		"x=http://a,x=http://b",
		"shard1=http://a,http://b",
		"://x",
		"a:1",
		"x=",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		list, _ := ParseShards(text)
		file, _ := parseMembership(strings.Split(text, "\n"))
		for _, shards := range [][]Shard{list, file} {
			names := make(map[string]bool, len(shards))
			for _, s := range shards {
				if s.Name == "" || names[s.Name] {
					t.Fatalf("%q: accepted an empty or duplicate name in %+v", text, shards)
				}
				names[s.Name] = true
				if u, err := url.Parse(s.URL); err != nil || u.Scheme == "" {
					t.Fatalf("%q: accepted URL %q without a scheme", text, s.URL)
				}
			}
		}
	})
}
