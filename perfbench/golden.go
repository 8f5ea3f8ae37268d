package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
)

// digestOf hashes the values' full-precision %v rendering: floats print
// their shortest exact form and maps print in key order, so equal
// results give equal digests.
func digestOf(values ...any) string {
	h := sha256.New()
	for _, v := range values {
		fmt.Fprintf(h, "%+v\n", v)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// goldens pins the outputs of the default seed (42) and a held-out seed
// (7) at the benchmark's sizes (not the test-sized ones): the grid's
// table digest and each replayed scheme's Result digest. Other seeds are
// checked for internal consistency only.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Grid   map[string]string            `json:"grid"`
	Replay map[string]map[string]string `json:"replay"`
}

var goldens = func() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("perfbench: golden.json: " + err.Error())
	}
	return g
}()

func goldenGrid(cfg config) (string, bool) {
	if cfg.Tiny {
		return "", false
	}
	d, ok := goldens.Grid[strconv.FormatInt(cfg.Seed, 10)]
	return d, ok
}

func goldenReplay(cfg config, scheme string) (string, bool) {
	if cfg.Tiny {
		return "", false
	}
	d, ok := goldens.Replay[strconv.FormatInt(cfg.Seed, 10)][scheme]
	return d, ok
}
