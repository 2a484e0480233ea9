//go:build race

package collective

// raceEnabled reports that this test binary was built with -race, under
// which the runtime instrumentation itself allocates — allocation guards
// are meaningless there and skip themselves.
const raceEnabled = true
