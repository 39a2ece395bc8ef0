/**
 * @file
 * Machine leases for the snapshot fork path.
 *
 * A fork restores a frozen image into a Machine, runs the measured
 * region and drops the machine. MachinePool hands those machines out
 * as RAII leases and counts them. Every lease is a newly constructed
 * machine: construction and restore cost O(frames touched), and
 * parking finished machines per config digest for reuse measured
 * within noise of constructing them (EXPERIMENTS.md, "Machines that
 * cost what they touch").
 */

#ifndef AGILEPAGING_SIM_MACHINE_POOL_HH
#define AGILEPAGING_SIM_MACHINE_POOL_HH

#include <atomic>
#include <cstdint>
#include <memory>

#include "sim/config.hh"

namespace ap
{

class Machine;

/** Thread-safe source of fork machines. */
class MachinePool
{
  public:
    /** An acquired machine, destroyed when the lease ends. */
    class Lease
    {
      public:
        Lease() = default;
        // Out of line: Machine is incomplete here.
        Lease(Lease &&) noexcept;
        Lease &operator=(Lease &&) noexcept;
        ~Lease();

        Machine &operator*() const { return *machine_; }
        Machine *operator->() const { return machine_.get(); }

        /** End the lease now (idempotent). */
        void release();

      private:
        friend class MachinePool;
        explicit Lease(std::unique_ptr<Machine> m) : machine_(std::move(m))
        {
        }

        std::unique_ptr<Machine> machine_;
    };

    /** Lease a newly constructed machine for @p cfg; callers restore a
     *  snapshot into it before use. */
    Lease acquire(const SimConfig &cfg);

    /** Machines constructed by acquire(). */
    std::uint64_t creates() const { return creates_.load(); }
    /** Acquires served by a reused machine: always 0, kept for callers
     *  that report a reuse fraction. */
    std::uint64_t reuses() const { return 0; }

  private:
    std::atomic<std::uint64_t> creates_{0};
};

} // namespace ap

#endif // AGILEPAGING_SIM_MACHINE_POOL_HH
