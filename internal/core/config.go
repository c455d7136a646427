package core

import (
	"fmt"

	"samplewh/internal/histogram"
)

// Config carries the footprint and statistical parameters shared by the
// bounded samplers and the merge procedures.
type Config struct {
	// FootprintBytes is F: the maximum allowable byte footprint of a sample
	// both during and after collection.
	FootprintBytes int64

	// SizeModel prices the compact representation (bytes per value, bytes
	// per counter). The zero value selects histogram.DefaultSizeModel.
	SizeModel histogram.SizeModel

	// ExceedProb is p: the maximum allowable probability that an HB sample
	// exceeds n_F values (paper equation (1)). Zero selects 0.001, the
	// paper's default.
	ExceedProb float64
}

// DefaultExceedProb is the paper's default target exceedance probability.
const DefaultExceedProb = 0.001

// normalized returns a copy with defaults filled in, validating bounds.
func (c Config) normalized() Config {
	c, err := c.checked()
	if err != nil {
		panic(err)
	}
	return c
}

// checked is normalized for a config read with a sample from disk or a peer:
// an unusable one is an error, not a panic.
func (c Config) checked() (Config, error) {
	if c.SizeModel == (histogram.SizeModel{}) {
		c.SizeModel = histogram.DefaultSizeModel
	}
	if c.ExceedProb == 0 {
		c.ExceedProb = DefaultExceedProb
	}
	return c, c.Validate()
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.FootprintBytes <= 0 {
		return fmt.Errorf("core: FootprintBytes = %d, want > 0", c.FootprintBytes)
	}
	if c.SizeModel.ValueBytes <= 0 {
		return fmt.Errorf("core: SizeModel.ValueBytes = %d, want > 0", c.SizeModel.ValueBytes)
	}
	if c.SizeModel.CountBytes < 0 {
		return fmt.Errorf("core: SizeModel.CountBytes = %d, want >= 0", c.SizeModel.CountBytes)
	}
	// 0 selects the default; NaN, and a p so small that 1 − p rounds to 1
	// (which has no normal quantile), are refused.
	if !(c.ExceedProb >= 0 && c.ExceedProb <= 0.5) || c.ExceedProb > 0 && 1-c.ExceedProb == 1 {
		return fmt.Errorf("core: ExceedProb = %v, want in (0, 0.5]", c.ExceedProb)
	}
	if c.NF() < 1 {
		return fmt.Errorf("core: footprint %dB holds %d values; need at least 1",
			c.FootprintBytes, c.NF())
	}
	return nil
}

// NF returns n_F, the number of data-element values corresponding to the
// maximum allowable footprint of F bytes.
func (c Config) NF() int64 {
	m := c.SizeModel
	if m == (histogram.SizeModel{}) {
		m = histogram.DefaultSizeModel
	}
	return m.MaxValues(c.FootprintBytes)
}

// ConfigForNF builds a Config whose footprint admits exactly nf values under
// the default size model — the convenient way to say "I want samples of (at
// most) this many elements", mirroring the paper's n_F = 8192 setup.
func ConfigForNF(nf int64) Config {
	return Config{
		FootprintBytes: nf * histogram.DefaultSizeModel.ValueBytes,
		SizeModel:      histogram.DefaultSizeModel,
		ExceedProb:     DefaultExceedProb,
	}
}
