package health

// SNRWithNull exposes the test-curve builder to the external test
// package, which drives the monitor through the full telemetry CLI.
var SNRWithNull = snrWithNull
