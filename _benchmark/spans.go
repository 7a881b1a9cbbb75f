package main

import (
	"locality/internal/obs/trace"
)

// spanTimes holds, per span name, the self (exclusive) time of every span
// of that name, in microseconds, and each span's start in Unix nanos.
type spanTimes map[string][]spanTime

type spanTime struct {
	start         int64
	selfUS, durUS float64
}

// selfTimes assembles the causal trees of a span set and returns each
// span's self time: its duration minus the part of it its children cover.
func selfTimes(spans []trace.Record) spanTimes {
	out := spanTimes{}
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		out[n.Name] = append(out[n.Name], spanTime{
			start:  n.Start,
			selfUS: float64(trace.ExclusiveNanos(n)) / 1e3,
			durUS:  float64(n.Dur) / 1e3,
		})
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, t := range trace.Assemble(spans).Traces {
		for _, r := range t.Roots {
			walk(r)
		}
	}
	return out
}

// within returns the spans of one name that started in [from, to) Unix
// nanos: the spans of one load phase.
func (st spanTimes) within(name string, from, to int64) []spanTime {
	var out []spanTime
	for _, s := range st[name] {
		if s.start >= from && s.start < to {
			out = append(out, s)
		}
	}
	return out
}

// selfUS and durUS project a span list onto one of its times.
func selfUS(ss []spanTime) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.selfUS
	}
	return out
}

func durUS(ss []spanTime) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.durUS
	}
	return out
}
