package cli

import (
	"fmt"
	"os"
	"strconv"

	"acyclicjoin/internal/core"
)

// Environment variables joinrun and joinbench honor when the corresponding
// flag is left unset. A flag always wins over its environment variable. The
// library itself never reads them.
const (
	// EnvStrategy selects the planning strategy (see core.ParseStrategy).
	EnvStrategy = "ACYCLICJOIN_STRATEGY"
	// EnvBackend selects the storage engine ("sim" or "file").
	EnvBackend = "ACYCLICJOIN_BACKEND"
	// EnvDataDir locates the file backend's backing file.
	EnvDataDir = "ACYCLICJOIN_DATADIR"
	// EnvSyncDevice forces the file backend's synchronous device path.
	EnvSyncDevice = "ACYCLICJOIN_SYNC_DEVICE"
	// EnvShards sets the MPC server count for shard-parallel execution.
	EnvShards = "ACYCLICJOIN_SHARDS"
	// EnvDevFaultRate sets the per-syscall transient fault probability for
	// the file backend's device-level chaos rig (internal/extmem/faultbackend).
	EnvDevFaultRate = "ACYCLICJOIN_DEVFAULTRATE"
	// EnvDevFaultSeed seeds the device-level fault schedule.
	EnvDevFaultSeed = "ACYCLICJOIN_DEVFAULTSEED"
)

// Config is the run configuration the ACYCLICJOIN_* variables can set, one
// field per variable. A zero field means "not given".
type Config struct {
	Strategy     string
	Backend      string
	DataDir      string
	SyncDevice   bool
	Shards       int
	DevFaultRate float64
	DevFaultSeed int64
}

// FromEnv fills every zero field of c from its environment variable and
// returns the result; a field that is already set (an explicit flag) is kept
// as is, even when its variable is malformed. A set variable must be well
// formed: a known strategy, "sim" or "file", a boolean, a positive integer, a
// probability in [0, 1], and an integer, respectively. DevFaultSeed resolves
// to 1 when neither the field nor its variable sets it. Errors name the
// variable and its value and carry no package prefix.
func (c Config) FromEnv() (Config, error) {
	bad := func(name, val, want string) error {
		return fmt.Errorf("bad %s=%q (want %s)", name, val, want)
	}
	if v := os.Getenv(EnvStrategy); c.Strategy == "" && v != "" {
		if _, err := core.ParseStrategy(v); err != nil {
			return c, bad(EnvStrategy, v, "exhaustive, first, smallest, or greedy")
		}
		c.Strategy = v
	}
	if v := os.Getenv(EnvBackend); c.Backend == "" && v != "" {
		if v != "sim" && v != "file" {
			return c, bad(EnvBackend, v, `"sim" or "file"`)
		}
		c.Backend = v
	}
	if c.DataDir == "" {
		c.DataDir = os.Getenv(EnvDataDir)
	}
	if v := os.Getenv(EnvSyncDevice); !c.SyncDevice && v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return c, bad(EnvSyncDevice, v, "a boolean")
		}
		c.SyncDevice = b
	}
	if v := os.Getenv(EnvShards); c.Shards == 0 && v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return c, bad(EnvShards, v, "a positive integer")
		}
		c.Shards = n
	}
	if v := os.Getenv(EnvDevFaultRate); c.DevFaultRate == 0 && v != "" {
		r, err := strconv.ParseFloat(v, 64)
		if err != nil || r < 0 || r > 1 {
			return c, bad(EnvDevFaultRate, v, "a probability in [0, 1]")
		}
		c.DevFaultRate = r
	}
	if v := os.Getenv(EnvDevFaultSeed); c.DevFaultSeed == 0 && v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return c, bad(EnvDevFaultSeed, v, "an integer")
		}
		c.DevFaultSeed = n
	}
	if c.DevFaultSeed == 0 {
		c.DevFaultSeed = 1
	}
	return c, nil
}
