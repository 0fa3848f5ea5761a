// Server side of the worker pipe protocol.
//
// optrules_workerd (and any in-process test harness) drives this loop:
// read a frame, run the requested partition scan, reply with the partial
// plan state, repeat until the coordinator closes the pipe or sends a
// shutdown frame. Errors while serving one request are reported as error
// frames and do NOT kill the worker -- the coordinator decides whether to
// retry elsewhere. While a scan is being served, a keepalive thread ships
// kHeartbeat frames every ~100 ms so the coordinator can tell a hung
// worker (silence) from a slow one (heartbeats but no result yet); kPing
// frames are answered with kPong immediately.
//
// Fault injection (test-only): the OPTRULES_WORKERD_FAULT environment
// variable (or RunWorkerLoop's fault_spec override) arms ONE deterministic
// fault so every coordinator failure path is exercisable from ctest:
//
//   crash-before-reply[@n]  raise(SIGKILL) while serving scan request n
//                           (0-based per daemon) -- kill -9 mid-scan
//   crash-mid-frame[@n]     write a truncated reply frame, then SIGKILL
//   garbage-frame[@n]       reply with an unparseable frame
//   error-frame[@n]         reply with an injected kError frame
//   stall:<ms>[@n]          sleep before replying, heartbeats RUNNING
//                           (a straggler: slow but provably alive)
//   hang:<ms>[@n]           sleep with heartbeats SUPPRESSED (a hang:
//                           the liveness timeout must kill this daemon)
//   rotate                  derive a sparse fault pattern from this
//                           daemon's spawn ordinal (see below)
//
// Every fault fires once (at scan request ordinal n, default 0), then
// disarms. Two auxiliary variables make multi-daemon runs deterministic:
// OPTRULES_WORKERD_FAULT_TOKEN names a file the daemon must atomically
// claim (unlink) when the fault comes due -- exactly one daemon of a
// fleet faults, the first to reach its fault point;
// OPTRULES_WORKERD_FAULT_COUNTER names a counter file `rotate`
// increments under flock to get a unique spawn ordinal -- ordinals
// o % 5 == 1 arm error-frame@0, o % 5 == 3 arm crash-before-reply@0, the
// rest run clean (the check-faults ctest lane sets this up).

#ifndef OPTRULES_DIST_WORKER_PROTOCOL_H_
#define OPTRULES_DIST_WORKER_PROTOCOL_H_

namespace optrules::dist {

/// Serves scan requests from `in_fd`, writing replies to `out_fd`, until
/// clean EOF or a kShutdown frame. Returns a process exit code (0 on a
/// clean shutdown, 1 when the pipe broke mid-frame). `fault_spec`
/// overrides the OPTRULES_WORKERD_FAULT environment variable when
/// non-null (empty string = no fault).
int RunWorkerLoop(int in_fd, int out_fd, const char* fault_spec = nullptr);

}  // namespace optrules::dist

#endif  // OPTRULES_DIST_WORKER_PROTOCOL_H_
