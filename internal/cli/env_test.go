package cli

import (
	"strings"
	"testing"
)

// resolve clears every variable FromEnv reads, sets env (name=value pairs),
// and resolves flags against it.
func resolve(t *testing.T, flags Config, env ...string) (Config, error) {
	t.Helper()
	for _, v := range []string{EnvStrategy, EnvBackend, EnvDataDir, EnvSyncDevice,
		EnvShards, EnvDevFaultRate, EnvDevFaultSeed} {
		t.Setenv(v, "")
	}
	for i := 0; i < len(env); i += 2 {
		t.Setenv(env[i], env[i+1])
	}
	return flags.FromEnv()
}

// wantBad checks that a malformed value is an error naming the variable and
// the value.
func wantBad(t *testing.T, env string, bad ...string) {
	t.Helper()
	for _, v := range bad {
		c, err := resolve(t, Config{}, env, v)
		if err == nil {
			t.Errorf("env %s=%q: got %+v, want an error", env, v, c)
			continue
		}
		if !strings.Contains(err.Error(), env) || !strings.Contains(err.Error(), v) {
			t.Errorf("env %s=%q: error %q should name the variable and the value", env, v, err)
		}
	}
}

// The three string-valued selections share one contract: a nonempty flag wins
// outright, an empty flag falls back to the environment, and both empty means
// the library default (empty string).
func TestStringEnvFallbacks(t *testing.T) {
	cases := []struct {
		name, env, val string
		field          func(*Config) *string
	}{
		{"strategy", EnvStrategy, "greedy", func(c *Config) *string { return &c.Strategy }},
		{"backend", EnvBackend, "file", func(c *Config) *string { return &c.Backend }},
		{"datadir", EnvDataDir, "/data", func(c *Config) *string { return &c.DataDir }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			get := func(flag string, env ...string) string {
				var in Config
				*c.field(&in) = flag
				out, err := resolve(t, in, env...)
				if err != nil {
					t.Fatalf("flag %q env %q: %v", flag, env, err)
				}
				return *c.field(&out)
			}
			if got := get(""); got != "" {
				t.Errorf("both unset: got %q, want empty", got)
			}
			if got := get("sim"); got != "sim" {
				t.Errorf("flag only: got %q, want sim", got)
			}
			if got := get("", c.env, c.val); got != c.val {
				t.Errorf("env only: got %q, want %q", got, c.val)
			}
			if got := get("sim", c.env, c.val); got != "sim" {
				t.Errorf("flag beats env: got %q, want sim", got)
			}
			if c.env != EnvDataDir {
				if got := get("sim", c.env, "banana"); got != "sim" {
					t.Errorf("flag with junk env: got %q, want sim", got)
				}
				wantBad(t, c.env, "banana", strings.ToUpper(c.val))
			}
		})
	}
}

func TestSyncDeviceResolution(t *testing.T) {
	for _, c := range []struct {
		flag bool
		env  string
		want bool
	}{
		{false, "", false}, {true, "", true}, {false, "1", true},
		{false, "true", true}, {false, "0", false}, {false, "false", false},
		{true, "0", true}, {true, "banana", true},
	} {
		got, err := resolve(t, Config{SyncDevice: c.flag}, EnvSyncDevice, c.env)
		if err != nil || got.SyncDevice != c.want {
			t.Errorf("flag %v env %q: got (%v, %v), want (%v, nil)", c.flag, c.env, got.SyncDevice, err, c.want)
		}
	}
	wantBad(t, EnvSyncDevice, "banana", "yes")
}

func TestShardsResolution(t *testing.T) {
	for _, c := range []struct {
		flag int
		env  string
		want int
	}{
		{0, "", 0}, {4, "", 4}, {0, "8", 8}, {2, "8", 2},
		// A set flag short-circuits before the environment is parsed at
		// all, and out-of-range flag values pass through for the library's
		// range check.
		{3, "banana", 3}, {-5, "", -5},
	} {
		got, err := resolve(t, Config{Shards: c.flag}, EnvShards, c.env)
		if err != nil || got.Shards != c.want {
			t.Errorf("flag %d env %q: got (%d, %v), want (%d, nil)", c.flag, c.env, got.Shards, err, c.want)
		}
	}
	wantBad(t, EnvShards, "banana", "0", "-3", "2.5", " 4")
}

func TestDevFaultRateResolution(t *testing.T) {
	for _, c := range []struct {
		flag float64
		env  string
		want float64
	}{
		{0, "", 0}, {0.25, "", 0.25}, {0, "0.1", 0.1}, {0.02, "0.1", 0.02}, {0.5, "banana", 0.5},
	} {
		got, err := resolve(t, Config{DevFaultRate: c.flag}, EnvDevFaultRate, c.env)
		if err != nil || got.DevFaultRate != c.want {
			t.Errorf("flag %v env %q: got (%v, %v), want (%v, nil)", c.flag, c.env, got.DevFaultRate, err, c.want)
		}
	}
	wantBad(t, EnvDevFaultRate, "banana", "1.5", "-0.1", "2", " 0.1")
}

func TestDevFaultSeedResolution(t *testing.T) {
	for _, c := range []struct {
		flag int64
		env  string
		want int64
	}{
		{0, "", 1}, {42, "", 42}, {0, "7", 7}, {3, "7", 3}, {0, "-9", -9}, {5, "banana", 5},
	} {
		got, err := resolve(t, Config{DevFaultSeed: c.flag}, EnvDevFaultSeed, c.env)
		if err != nil || got.DevFaultSeed != c.want {
			t.Errorf("flag %d env %q: got (%d, %v), want (%d, nil)", c.flag, c.env, got.DevFaultSeed, err, c.want)
		}
	}
	wantBad(t, EnvDevFaultSeed, "banana", "1.5")
}

// With nothing set, FromEnv changes nothing but the default seed.
func TestFromEnvUnset(t *testing.T) {
	got, err := resolve(t, Config{})
	if err != nil || got != (Config{DevFaultSeed: 1}) {
		t.Fatalf("FromEnv() = %+v, %v; want only the default seed", got, err)
	}
}
