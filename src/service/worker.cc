/**
 * @file
 * Worker loop implementation.
 */

#include "service/worker.hh"

#include <exception>

#include "service/wire.hh"
#include "trace/trace_cache.hh"

namespace ap
{
namespace service
{

int
workerMain(int request_fd, int result_fd, const WorkerOptions &opt)
{
    CellEngine engine("", opt.snapshotPoolBytes);

    for (;;) {
        Frame frame;
        ReadStatus rs = readFrame(request_fd, frame);
        if (rs == ReadStatus::Eof)
            return 0; // dispatcher closed the pipe: drain complete
        if (rs == ReadStatus::Broken)
            return 1;
        if (frame.type == FrameType::Shutdown)
            return 0;
        if (frame.type != FrameType::CellRequest)
            continue; // unknown frame types are skipped, not fatal

        CellRequest req;
        CellResult res;
        if (!decodeCellRequest(frame.payload, req)) {
            // The dispatcher encoded this itself, so a decode failure
            // is a framing bug, not user input — but answering with an
            // error result keeps the one-in/one-out protocol intact.
            res.ok = false;
            res.error = "worker: malformed cell request";
        } else {
            res.batch = req.batch;
            res.cell = req.cell;
            try {
                res.run = engine.run(req.spec);
                res.ok = true;
            } catch (const std::exception &e) {
                res.ok = false;
                res.error = e.what();
            } catch (...) {
                res.ok = false;
                res.error = "unknown worker exception";
            }
        }
        if (!writeFrame(result_fd, FrameType::CellResult,
                        encodeCellResult(res)))
            return 1; // dispatcher gone
    }
}

} // namespace service
} // namespace ap
