#pragma once

namespace perfbench {

/// Script determinism and history-checker tests; false (with a message
/// on stderr) when any fails.
bool run_selftests();

}  // namespace perfbench
