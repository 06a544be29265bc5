#include "apps/app.hh"

#include <memory>

#include "kernels/basic.hh"
#include "kernels/jpeg_kernels.hh"
#include "media/jpeg_codec.hh"
#include "media/quality.hh"

namespace commguard::apps
{

using namespace streamit;
namespace jc = media::jpeg;

App
makeJpegApp(int width, int height, int quality)
{
    App app;
    app.name = "jpeg";

    auto original = std::make_shared<media::Image>(
        media::makeFlowerImage(width, height));
    const jc::JpegStream stream = jc::encode(*original, quality);

    // Quantization table reordered into zigzag (stream) order.
    const auto qt = jc::quantTable(quality);
    const auto &zz = jc::zigzagOrder();
    std::array<float, jc::blockSize> qt_zigzag{};
    for (int i = 0; i < jc::blockSize; ++i)
        qt_zigzag[i] = qt[zz[i]];

    StreamGraph &g = app.graph;
    const int row_words = width * jc::blockDim * jc::channels;

    const NodeId f0 = g.addFilter(
        {"F0_unpack", {64}, {64}, [](int firings) {
             return kernels::buildPassthrough("F0_unpack", 64, firings);
         }});
    const NodeId f1 = g.addFilter(
        {"F1_dequant", {64}, {64}, [qt_zigzag](int firings) {
             return kernels::buildJpegDequant(qt_zigzag, firings);
         }});
    const NodeId f2 = g.addFilter(
        {"F2_zigzag_split", {192}, {64, 64, 64}, [](int firings) {
             return kernels::buildInvZigzagSplit3(firings);
         }});
    const NodeId f3r = g.addFilter(
        {"F3R_idct", {64}, {64}, [](int firings) {
             return kernels::buildIdct8x8(firings);
         }});
    const NodeId f3g = g.addFilter(
        {"F3G_idct", {64}, {64}, [](int firings) {
             return kernels::buildIdct8x8(firings);
         }});
    const NodeId f3b = g.addFilter(
        {"F3B_idct", {64}, {64}, [](int firings) {
             return kernels::buildIdct8x8(firings);
         }});
    const NodeId f4 = g.addFilter(
        {"F4_join", {64, 64, 64}, {192}, [](int firings) {
             return kernels::buildJoin3Interleave(firings);
         }});
    const NodeId f5 = g.addFilter(
        {"F5_clamp", {192}, {192}, [](int firings) {
             return kernels::buildClamp255(firings);
         }});
    const NodeId f6 = g.addFilter(
        {"F6_round", {192}, {192}, [](int firings) {
             return kernels::buildRoundToByte(firings);
         }});
    const NodeId f7 = g.addFilter(
        {"F7_rows", {row_words}, {row_words}, [width](int firings) {
             return kernels::buildRowAssembler(width, firings);
         }});

    g.setExternalInput(f0, 0);
    g.connect(f0, 0, f1, 0);
    g.connect(f1, 0, f2, 0);
    g.connect(f2, 0, f3r, 0);
    g.connect(f2, 1, f3g, 0);
    g.connect(f2, 2, f3b, 0);
    g.connect(f3r, 0, f4, 0);
    g.connect(f3g, 0, f4, 1);
    g.connect(f3b, 0, f4, 2);
    g.connect(f4, 0, f5, 0);
    g.connect(f5, 0, f6, 0);
    g.connect(f6, 0, f7, 0);
    g.setExternalOutput(f7, 0);

    app.input = stream.words;
    app.steadyIterations =
        static_cast<Count>(height / jc::blockDim);  // One per stripe.

    app.errorFreeQualityDb =
        media::psnrDb(*original, jc::decodeHost(stream));

    app.quality = [original, width, height](
                      const std::vector<Word> &output) {
        return media::psnrDb(
            *original, jpegImageFromOutput(output, width, height));
    };
    return app;
}

} // namespace commguard::apps
