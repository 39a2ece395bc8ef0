/**
 * @file
 * Machine lease implementation.
 */

#include "sim/machine_pool.hh"

#include "sim/machine.hh"

namespace ap
{

MachinePool::Lease::Lease(Lease &&) noexcept = default;
MachinePool::Lease &
MachinePool::Lease::operator=(Lease &&) noexcept = default;
MachinePool::Lease::~Lease() = default;

void
MachinePool::Lease::release()
{
    machine_.reset();
}

MachinePool::Lease
MachinePool::acquire(const SimConfig &cfg)
{
    ++creates_;
    return Lease(std::make_unique<Machine>(cfg));
}

} // namespace ap
