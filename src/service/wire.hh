/**
 * @file
 * Wire protocol for the apsimd simulation service.
 *
 * Every message — client connection or internal worker pipe — is a
 * length-prefixed frame: a little-endian u32 payload length, one type
 * byte, then the payload. Batch requests and cell messages carry flat
 * binary payloads built with base/serialize; the frames streamed back
 * to clients carry JSON text (one object per frame) so a client can
 * tail results as NDJSON without a binary decoder.
 *
 * A well-framed payload that fails to decode is a *recoverable* error:
 * the server answers with an Error frame and keeps the connection.
 * Only an unreadable frame header (short read, oversized length)
 * poisons the stream, since framing can no longer be trusted.
 */

#ifndef AGILEPAGING_SERVICE_WIRE_HH
#define AGILEPAGING_SERVICE_WIRE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/serialize.hh"
#include "sim/experiment.hh"

namespace ap
{
namespace service
{

/** Frame type tags. Client-facing and worker-pipe messages share the
 *  framing so both sides reuse one reader. */
enum class FrameType : std::uint8_t
{
    /** client -> server: encoded ExperimentSpec batch. */
    BatchRequest = 1,
    /** server -> client: JSON ap-run-frame-v1 for one finished cell. */
    RunFrame = 2,
    /** server -> client: JSON ap-batch-end-v1 closing a batch. */
    BatchEnd = 3,
    /** server -> client: JSON ap-error-v1 (batch- or cell-scoped). */
    Error = 4,
    /** client -> server: stop accepting, drain, exit. */
    Shutdown = 5,
    /** dispatcher -> worker: one cell to simulate. */
    CellRequest = 6,
    /** worker -> dispatcher: result (or sticky error) for one cell. */
    CellResult = 7,
};

/** Frames larger than this are a protocol violation (the biggest
 *  legitimate payload is a run frame, a few KiB of JSON). */
constexpr std::uint32_t kMaxFrameLen = 64u << 20;

struct Frame
{
    FrameType type = FrameType::Error;
    std::vector<std::uint8_t> payload;
};

enum class ReadStatus
{
    Ok,
    /** Clean EOF between frames. */
    Eof,
    /** Short read inside a frame, oversized length, or syscall error:
     *  the stream can no longer be re-synchronized. */
    Broken,
};

/** Write one frame, looping over partial writes. @return false on
 *  write error (EPIPE included; callers treat it as peer-gone). */
bool writeFrame(int fd, FrameType type, const void *data, std::size_t n);
bool writeFrame(int fd, FrameType type,
                const std::vector<std::uint8_t> &payload);
bool writeFrame(int fd, FrameType type, const std::string &payload);

/** Read one frame, looping over partial reads. */
ReadStatus readFrame(int fd, Frame &out);

/**
 * Turn off Nagle's algorithm on a TCP connection. writeFrame sends a
 * frame as two writes (header, then payload), and with Nagle on the
 * second waits for the peer's delayed ACK of the first — about 40 ms
 * on Linux loopback — before it leaves. A Unix socket has no Nagle,
 * so anything but an AF_INET socket is left as it is.
 */
void setNoDelay(int fd);

/**
 * Validate one cell against what a Machine can actually be configured
 * with: registry-known workload, in-range mode/coherence enums, a
 * 4K or 2M page size, sane vCPU count. Dispatching an invalid spec
 * would ap_fatal inside a worker, so the server rejects it here with
 * an Error frame instead.
 * @return empty string if valid, else a human-readable reason.
 */
std::string validateSpec(const ExperimentSpec &spec);

/** Encode a batch of cells for a BatchRequest frame. */
std::vector<std::uint8_t>
encodeBatch(const std::vector<ExperimentSpec> &specs);

/**
 * Decode a BatchRequest payload. Enum fields are range-checked and
 * every spec is run through validateSpec.
 * @return false with @p err set on any malformed or invalid content.
 */
bool decodeBatch(const std::vector<std::uint8_t> &payload,
                 std::vector<ExperimentSpec> &out, std::string &err);

/** RunResult codec for worker result pipes. getRunResult refuses
 *  out-of-range mode and page-size tags, as decodeBatch does. */
void putRunResult(Serializer &s, const RunResult &r);
bool getRunResult(Deserializer &d, RunResult &out);

/** One cell dispatched to a worker. */
struct CellRequest
{
    std::uint64_t batch = 0;
    std::uint32_t cell = 0;
    ExperimentSpec spec;
};

std::vector<std::uint8_t> encodeCellRequest(const CellRequest &req);
bool decodeCellRequest(const std::vector<std::uint8_t> &payload,
                       CellRequest &out);

/** One finished cell coming back from a worker. */
struct CellResult
{
    std::uint64_t batch = 0;
    std::uint32_t cell = 0;
    bool ok = false;
    /** Set when !ok: the worker-side failure, propagated verbatim
     *  (sticky cache errors reproduce the first failure's text). */
    std::string error;
    RunResult run;
};

std::vector<std::uint8_t> encodeCellResult(const CellResult &res);
bool decodeCellResult(const std::vector<std::uint8_t> &payload,
                      CellResult &out);

/**
 * Render the JSON payload of a RunFrame. The "run" object is emitted
 * by writeRunResultJson, so it is byte-identical to the corresponding
 * element of an in-process ap-runs-v1 "runs" array.
 */
std::string renderRunFrame(std::uint64_t batch, std::uint32_t cell,
                           unsigned worker, const RunResult &r);

/** Render the JSON payload of a BatchEnd frame. */
std::string renderBatchEnd(std::uint64_t batch, std::uint32_t cells,
                           std::uint32_t errors);

/** Render the JSON payload of an Error frame. @p cell < 0 for
 *  batch-scoped errors. */
std::string renderErrorFrame(const std::string &error,
                             std::int64_t batch = -1,
                             std::int64_t cell = -1);

} // namespace service
} // namespace ap

#endif // AGILEPAGING_SERVICE_WIRE_HH
