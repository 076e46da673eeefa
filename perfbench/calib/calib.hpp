#pragma once
// Calibration kernel: a fixed, throughput-bound piece of work (a sort plus
// ordered-map churn over constant data) timed next to every block of
// requests. It is compiled as its own library without the program's include
// path, so it cannot call into the code under test; a change to the program
// cannot change what it measures.

namespace perfbench {

/// Runs the kernel once and returns its wall-clock in nanoseconds.
double calibration_ns();

/// One calibration sample, in ns: the kernel runs `reps` times on every
/// hardware thread at once; the mean over threads of each thread's median.
double calibration_sample(int reps = 5);

} // namespace perfbench
