// Chrome/Perfetto trace export over journal records.
//
// The journal (journal.hpp) is the only event recorder; the trace is one of
// its exporters, like the provenance index (provenance.hpp). It renders a
// drain() or a snapshot() as Chrome trace-event JSON, which chrome://tracing
// and https://ui.perfetto.dev load directly:
//  - Sim records go to pid 2 "sim-time" at sim_us, every other record to
//    pid 1 "wall-clock" at t_ns from the earliest exported wall record;
//  - a SolveBegin or UpdateBegin and the next UpdateEnd of its stream are
//    one complete ('X') event, "solve" or "update"; a begin or end whose
//    partner fell outside the window stays an instant;
//  - QueueDepth records are the 'C' counter track "queue depth";
//  - every other record is one thread-scoped instant, on a "node v",
//    "arc a" or "stream s" row with its own tid.
// So 2·X + i + C equals the number of records. docs/OBSERVABILITY.md
// (Tracing) gives the names and args.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "mrt/obs/journal.hpp"

namespace mrt::obs {

/// {"traceEvents": [...], "displayTimeUnit": "ms"} for `records`, which
/// must be in seq order (as drain() and snapshot() return them).
void write_chrome_trace(std::ostream& out,
                        const std::vector<JournalRecord>& records);
/// Returns false if the file could not be opened or written.
bool write_chrome_trace_file(const std::string& path,
                             const std::vector<JournalRecord>& records);

}  // namespace mrt::obs
