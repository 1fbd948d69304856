#include "src/drivers/device_drivers.h"

#include <utility>

namespace wdmlat::drivers {

using kernel::Label;

DiskDriver::DiskDriver(kernel::Kernel& kernel, hw::IdeDisk& disk, int line)
    : kernel_(kernel),
      disk_(disk),
      dpc_(
          [this] {
            // Completion processing: deliver all finished requests.
            while (!done_queue_.empty()) {
              auto done = std::move(done_queue_.front());
              done_queue_.pop_front();
              ++completions_;
              if (done) {
                done();
              }
            }
          },
          sim::DurationDist::LogNormal(25.0, 0.5), Label{"ATAPI", "_IdeCompletionDpc"}) {
  kernel_.IoConnectInterrupt(line, kernel_.pic().line_irql(line),
                             Label{"ATAPI", "_IdeInterrupt"},
                             [this]() -> sim::Cycles {
                               kernel_.KeInsertQueueDpc(&dpc_);
                               // Short WDM ISR: read status, ack, queue DPC.
                               return sim::UsToCycles(4.0);
                             });
}

void DiskDriver::SubmitIo(std::uint32_t bytes, std::function<void()> on_done) {
  // The hardware calls back at completion time (before asserting the
  // interrupt); the callback's effects are delivered by the completion DPC.
  disk_.SubmitTransfer(bytes, [this, done = std::move(on_done)]() mutable {
    done_queue_.push_back(std::move(done));
  });
}

NicDriver::NicDriver(kernel::Kernel& kernel, hw::Nic& nic, int line)
    : kernel_(kernel),
      nic_(nic),
      dpc_(
          [this] {
            const std::uint32_t frames = nic_.DrainRing();
            frames_processed_ += frames;
            pending_frames_ += frames;
            // Protocol processing above the miniport runs as work items
            // (NDIS/TCP receive indication), batched every few frames.
            while (pending_frames_ >= 8) {
              pending_frames_ -= 8;
              kernel_.ExQueueWorkItem(60.0, Label{"TCPIP", "_ReceiveIndication"});
            }
          },
          sim::DurationDist::LogNormal(15.0, 0.6), Label{"E100B", "_ReceiveDpc"}) {
  kernel_.IoConnectInterrupt(line, kernel_.pic().line_irql(line),
                             Label{"E100B", "_MiniportIsr"},
                             [this]() -> sim::Cycles {
                               kernel_.KeInsertQueueDpc(&dpc_);
                               return sim::UsToCycles(3.0);
                             });
}

AudioDriver::AudioDriver(kernel::Kernel& kernel, hw::AudioDevice& device, int line)
    : kernel_(kernel),
      device_(device),
      dpc_(
          [this] { ++buffers_processed_; },
          // KMixer-era audio completion work is comparatively heavy.
          sim::DurationDist::LogNormal(80.0, 0.5), Label{"KMIXER", "_MixBufferDpc"}) {
  kernel_.IoConnectInterrupt(line, kernel_.pic().line_irql(line),
                             Label{"PORTCLS", "_AudioIsr"},
                             [this]() -> sim::Cycles {
                               kernel_.KeInsertQueueDpc(&dpc_);
                               return sim::UsToCycles(5.0);
                             });
}

UsbAudioDriver::UsbAudioDriver(kernel::Kernel& kernel, hw::UhciController& controller,
                               int line)
    : kernel_(kernel),
      controller_(controller),
      dpc_(
          [this] {
            ++frames_processed_;
            if (controller_.ConsumeBufferBoundary()) {
              ++buffers_processed_;
              // KMixer renders the completed buffer on the worker thread.
              kernel_.ExQueueWorkItem(150.0, Label{"KMIXER", "_MixUsbBuffer"});
            }
          },
          // USBD isochronous completion processing per frame.
          sim::DurationDist::LogNormal(10.0, 0.4), Label{"USBD", "_IsochCompleteDpc"}) {
  kernel_.IoConnectInterrupt(line, kernel_.pic().line_irql(line),
                             Label{"UHCD", "_UhciIsr"}, [this]() -> sim::Cycles {
                               kernel_.KeInsertQueueDpc(&dpc_);
                               return sim::UsToCycles(3.0);
                             });
}

}  // namespace wdmlat::drivers
