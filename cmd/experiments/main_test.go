package main

import (
	"fmt"
	"testing"
)

func TestParseSweep(t *testing.T) {
	for _, tc := range []struct {
		in, name, values string
		bad              bool
	}{
		{in: ""},
		{in: "speed=1,2.5,4", name: "speed", values: "[1 2.5 4]"},
		{in: " speed = 1, 2 ", name: "speed", values: "[1 2]"},
		{in: " =1,2", bad: true},
		{in: "=1,2", bad: true},
		{in: "speed", bad: true},
		{in: "speed=", bad: true},
		{in: "speed= ", bad: true},
		{in: "speed=1,x", bad: true},
		{in: "speed=1,,2", bad: true},
	} {
		name, values, err := parseSweep(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("parseSweep(%q) = %q %v, want an error", tc.in, name, values)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSweep(%q): %v", tc.in, err)
			continue
		}
		if name != tc.name || (tc.values != "" && fmt.Sprint(values) != tc.values) || (tc.values == "" && values != nil) {
			t.Errorf("parseSweep(%q) = %q %v, want %q %s", tc.in, name, values, tc.name, tc.values)
		}
	}
}
