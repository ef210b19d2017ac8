// The worker side of the dispatch protocol: what a scenario binary becomes
// when a worker fleet (dispatch/fleet.hpp) re-execs it with `--pnoc-worker`
// (scenario::Cli, the test main and the perfbench harness recognize the
// flag).  Jobs arrive as newline-delimited JSON on stdin and each reply is
// flushed to stdout as soon as its job finishes (wire.hpp).
#pragma once

#include <iosfwd>

namespace pnoc::scenario {

/// The argv[1] that turns any scenario binary into a protocol worker.
inline constexpr const char* kWorkerFlag = "--pnoc-worker";

/// The worker loop.  The FIRST stdin line must be the streaming hello
/// (wire::streamHelloLine): the worker acks it at once, then replies — and
/// flushes — per job line as it arrives, until stdin EOF.  Returns the
/// process exit code: nonzero on protocol corruption (a first line that is
/// not the hello, an unparseable job line); per-job simulation failures
/// become in-band error replies.
int runWorkerLoop(std::istream& in, std::ostream& out);

}  // namespace pnoc::scenario
