package experiments

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFiguresPinned pins the sha256 of every simulated figure's rendered
// output at the test-sized parameters, so a change that moves simulated
// behaviour fails tier-1 instead of waiting for someone to diff benchrunner
// builds. A deliberate change re-baselines by pasting the printed digests
// over want.
func TestFiguresPinned(t *testing.T) {
	want := map[string]string{
		"fig9a":                "8a27ef9d8e6ace1f86c55d5268ed5673bb737d29535707df41aac4a136325775",
		"fig9b":                "171a3c9e90044760755b0c8d459ca9c0087be66453701bc0e31868bab499270a",
		"fig9c":                "1ab07bc21404c942e8aa7aef4260352dabaad9ba550268c81d7809318c9dd4e5",
		"fig9d":                "d2ee9709332b568d00c54f409b287ce6e3fdd9af83c81fadcebb488d20eee370",
		"fig9e":                "fa171e570ddd3a86b6c912ac94536d2ae68dbb37b1cc5aa5936a49640bde942b",
		"fig9e-windows":        "3b89f8fc33c435b2ed849bf551288eac9e4183f1a192a2c2f518a1a886a8e3c2",
		"fig9f":                "51a2201c54256540502f22f78a371197dd5fdf261164a83bfa2f611071f90d8b",
		"fig9f-validate":       "89a3e8ace2cd58b46c34d24174a7dbf6668c9abf2b2f27442c3e6f19eb97f109",
		"fig10-1vg":            "1105b4ad55bac7500aa816b6aa7855a6b50cdf7c09807bc50fcc074bd3825e12",
		"fig10-30vg":           "99e352ae8d72be24a4eafae71a0317f89d8667992bd3a4490859eaef353cb53a",
		"fig10-1vg-autopilot":  "6e9ea2831d53987af879a4b476b63e2637f32014cd3a358cee3c157944ffb254",
		"fig10-30vg-autopilot": "8b73854901e8e080b62f2bb3d22c57eda42105a74ca143219e7fcafc3161f504",
		"resize":               "c31dabf8ae75707cc028bac3f52cd574ce70406f1c833be4ccaf72996d522a30",
		"fig11":                "0c264f48ee097db4ab0c66e6366d0ac73c4fdde9d8ad3865679d9d53e8d3fbf7",
		"placement":            "e5db30e4fc55abb696d191f697ddfe75530c2a7f3aa3d7ad61256c7f4771b74a",
	}
	fig := func(f *Figure, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return f.Format(), nil
	}
	fig10 := func(vgroups int, autopilot bool) func() (string, error) {
		return func() (string, error) {
			o := fastFig10(vgroups)
			o.Autopilot = autopilot
			res, err := Fig10(o)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}
	}
	renders := []struct {
		name   string
		render func() (string, error)
	}{
		{"fig9a", func() (string, error) { return fig(Fig9a(fastOpts())) }},
		{"fig9b", func() (string, error) { return fig(Fig9b(fastOpts())) }},
		{"fig9c", func() (string, error) { return fig(Fig9c(fastOpts())) }},
		{"fig9d", func() (string, error) { return fig(Fig9d(fastOpts())) }},
		{"fig9e", func() (string, error) { return fig(Fig9e(fastOpts())) }},
		{"fig9e-windows", func() (string, error) {
			pts, err := Fig9eWindows(fastOpts(), []int{1, 4, 16, 64})
			return FormatWindows(pts), err
		}},
		{"fig9f", func() (string, error) {
			return fig(Fig9f(Fig9fOpts{Leaves: []int{4, 16, 64}, Samples: 1500}))
		}},
		{"fig9f-validate", func() (string, error) {
			analytic, measured, err := Fig9fValidate()
			return fmt.Sprintf("%v %v", analytic, measured), err
		}},
		{"fig10-1vg", fig10(1, false)},
		{"fig10-30vg", fig10(30, false)},
		{"fig10-1vg-autopilot", fig10(1, true)},
		{"fig10-30vg-autopilot", fig10(30, true)},
		{"resize", func() (string, error) {
			res, err := RunResize(fastResize())
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"fig11", func() (string, error) {
			return fig(Fig11(Fig11Opts{
				ContentionIndexes: []float64{0.01, 1},
				Clients:           []int{1, 8},
				ColdKeys:          300,
				NetChainWindow:    8 * time.Millisecond,
				ZKWindow:          400 * time.Millisecond,
			}))
		}},
		{"placement", func() (string, error) {
			r, err := RunPlacementScaling(PlacementOpts{})
			if err != nil {
				return "", err
			}
			return FormatPlacement(r), nil
		}},
	}

	// Every figure runs on its own simulator, so they render in parallel.
	sums := make([]string, len(renders))
	errs := make([]error, len(renders))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, r := range renders {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			out, err := r.render()
			sums[i], errs[i] = fmt.Sprintf("%x", sha256.Sum256([]byte(out))), err
		}()
	}
	wg.Wait()

	var got strings.Builder
	failed := false
	for i, r := range renders {
		if errs[i] != nil {
			t.Fatalf("%s: %v", r.name, errs[i])
		}
		failed = failed || sums[i] != want[r.name]
		fmt.Fprintf(&got, "\t\t%q: %q,\n", r.name, sums[i])
	}
	if failed {
		t.Fatalf("figure digests moved; got:\n%s", got.String())
	}
}
