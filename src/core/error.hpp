#pragma once
// Error types and assertion helpers shared by all Neon layers.

#include <cstdint>
#include <source_location>
#include <stdexcept>
#include <string>

namespace neon {

/// Base class for all errors raised by the library.
class NeonException : public std::runtime_error
{
   public:
    explicit NeonException(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when a (simulated) device allocation exceeds the device capacity.
/// Reproduces the out-of-memory data point in the paper's Fig. 9.
class DeviceMemoryError : public NeonException
{
   public:
    DeviceMemoryError(int deviceId, size_t requested, size_t inUse, size_t capacity)
        : NeonException("device " + std::to_string(deviceId) + " out of memory: requested " +
                        std::to_string(requested) + " B with " + std::to_string(inUse) +
                        " B in use of " + std::to_string(capacity) + " B capacity"),
          deviceId(deviceId),
          requested(requested),
          inUse(inUse),
          capacity(capacity)
    {
    }

    int    deviceId;
    size_t requested;
    size_t inUse;
    size_t capacity;
};

/// Internal invariant violation (scheduler/runtime bug, not user error).
class InternalError : public NeonException
{
   public:
    explicit InternalError(const std::string& what) : NeonException("internal error: " + what) {}
};

/// Structured runtime fault raised by the execution engine
/// (docs/robustness.md): a transfer that exhausted its retry budget, a
/// permanently lost device or an op that exceeded the virtual per-op
/// timeout; neon::service also raises it to reject a submission.
/// Every error carries full attribution — device, stream, op kind/name and
/// the skeleton container/run that enqueued the op — so a failure is never
/// a bare hang or a silent wrong result.
class RuntimeError : public NeonException
{
   public:
    enum class Kind : uint8_t
    {
        TransferFailed,  ///< transfer failed on every attempt of the retry budget
        DeviceLost,      ///< op targeted a permanently lost device
        OpTimeout,       ///< op exceeded SimConfig::opTimeout (virtual seconds)
        AdmissionRejected,  ///< neon::service refused the submission (quota/limits)
    };

    struct Info
    {
        Kind        kind = Kind::DeviceLost;
        int         device = -1;
        int         stream = -1;
        std::string opKind;  ///< "kernel" | "transfer" | "hostFn" | "wait" | "submit"
        std::string opName;
        int         containerId = -1;  ///< skeleton graph-node id, -1 outside a skeleton
        int         runId = -1;        ///< skeleton run() window id, -1 outside
        int         attempts = 0;      ///< TransferFailed: attempts made before giving up
        double      timeout = 0.0;     ///< OpTimeout: the configured limit [virtual s]
        /// Filled by the Skeleton abort path: label of the graph node and
        /// the last run whose effects are declared consistent.
        std::string containerLabel;
        int         lastCompletedRun = -1;
        /// Filled by neon::service: which job/tenant the failure belongs to.
        int         jobId = -1;
        std::string tenant;
    };

    explicit RuntimeError(Info info) : NeonException(format(info)), info(std::move(info)) {}

    Info info;

   private:
    static std::string format(const Info& i)
    {
        std::string kind;
        switch (i.kind) {
            case Kind::TransferFailed: kind = "transfer failed"; break;
            case Kind::DeviceLost: kind = "device lost"; break;
            case Kind::OpTimeout: kind = "op timeout"; break;
            case Kind::AdmissionRejected: kind = "admission rejected"; break;
        }
        std::string msg = "runtime fault [" + kind + "]: " + (i.opKind.empty() ? "op" : i.opKind);
        if (!i.opName.empty()) {
            msg += " '" + i.opName + "'";
        }
        if (i.device >= 0) {
            msg += " on dev" + std::to_string(i.device) + "/s" + std::to_string(i.stream);
        }
        if (i.kind == Kind::TransferFailed) {
            msg += " after " + std::to_string(i.attempts) + " attempt(s)";
        }
        if (i.timeout > 0.0) {
            msg += " (limit " + std::to_string(i.timeout) + " s)";
        }
        if (i.containerId >= 0 || !i.containerLabel.empty()) {
            msg += ", container " +
                   (i.containerLabel.empty() ? std::to_string(i.containerId) : i.containerLabel);
        }
        if (i.runId >= 0) {
            msg += ", run " + std::to_string(i.runId);
        }
        if (i.jobId >= 0) {
            msg += ", job " + std::to_string(i.jobId);
        }
        if (!i.tenant.empty()) {
            msg += ", tenant '" + i.tenant + "'";
        }
        if (i.lastCompletedRun >= 0) {
            msg += " (last completed run: " + std::to_string(i.lastCompletedRun) + ")";
        }
        return msg;
    }
};

namespace detail {
[[noreturn]] inline void throwAssert(const char*                 expr,
                                     const std::string&          msg,
                                     const std::source_location& loc)
{
    throw NeonException(std::string(loc.file_name()) + ":" + std::to_string(loc.line()) +
                        ": assertion (" + expr + ") failed: " + msg);
}
}  // namespace detail

/// Always-on checked assertion. Used for user-facing API contract checks.
#define NEON_CHECK(expr, msg)                                                        \
    do {                                                                             \
        if (!(expr)) {                                                               \
            ::neon::detail::throwAssert(#expr, (msg), std::source_location::current()); \
        }                                                                            \
    } while (0)

}  // namespace neon
